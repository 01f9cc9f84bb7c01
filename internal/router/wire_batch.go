package router

import (
	"encoding/binary"

	"dod/internal/codec"
	"dod/internal/geom"
	"dod/internal/stream"
)

// Batch wire forms. A router ingest batch settles as runs (coalesce.go), each
// in two waves of one RPC per shard: a read-only run probe on /v1/support
// (EncodeRunProbe) and a seq-ordered run script on /v1/shard/ingest_batch
// (EncodeRun). Scoring sends one multi-probe /v1/support body per owning
// shard (supportBatch). Frame kinds and sealing are shared with the
// per-point protocol.

// PathShardIngestBatch applies one shard's script of a run in one
// exchange; see EncodeRun.
const PathShardIngestBatch = "/v1/shard/ingest_batch"

// frameRunOp is one run entry: a stream.RunOpKind byte, then
//
//	RunAdmit:   codec point, uvarint seq, uvarint foreign count
//	RunEvict:   uvarint id
//	RunSupport: varint delta, codec point, cell list (frameCells payload)
const frameRunOp byte = 5

// SupportProbe is one (point, cells) pair of a multi-probe support body.
type SupportProbe struct {
	Point geom.Point
	Cells [][]int64
}

// RunHeader is the control header of a run script.
type RunHeader struct {
	ArrivedNs int64 `json:"arrivedNs"`
	Count     int   `json:"count"`
}

// IngestBatchResponse answers a run script with each admission's neighbour
// count at admission, in script order; the router knows the rest of each
// verdict. Error reports a script that was not applied at all. Shards keep
// the response for idempotent replay, so it stays small.
type IngestBatchResponse struct {
	Neighbors []int  `json:"neighbors,omitempty"`
	Error     string `json:"error,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

// supportBatch builds a sealed multi-probe support body one probe at a
// time, so no probe's cells need outlive its encoding: the header, then
// one (point, cells) frame pair per probe, paired by order. A single-probe
// body is byte-compatible with EncodeSupport.
type supportBatch []byte

func newSupportBatch(hdr SupportHeader) supportBatch { return appendJSONHeader(nil, hdr) }

func (b *supportBatch) add(p geom.Point, cells [][]int64) {
	*b = codec.AppendFrame(*b, framePoint, codec.AppendPoint(nil, p))
	*b = appendCells(*b, p.Dim(), cells)
}

func (b supportBatch) seal() []byte { return codec.AppendSumFrame(b) }

// EncodeRunProbe builds a sealed run probe for /v1/support: a header with
// Run set, then the probe's entries in run order (see ShardWindow.ProbeRun).
func EncodeRunProbe(ops []stream.RunOp) []byte {
	return encodeRun(SupportHeader{Run: true}, ops)
}

// EncodeRun builds a sealed run script for /v1/shard/ingest_batch.
func EncodeRun(hdr RunHeader, ops []stream.RunOp) []byte {
	return encodeRun(hdr, ops)
}

func encodeRun(hdr any, ops []stream.RunOp) []byte {
	body := appendJSONHeader(nil, hdr)
	var payload []byte
	for _, op := range ops {
		payload = append(payload[:0], byte(op.Kind))
		switch op.Kind {
		case stream.RunAdmit:
			payload = codec.AppendPoint(payload, op.Point)
			payload = binary.AppendUvarint(payload, op.Seq)
			payload = binary.AppendUvarint(payload, uint64(op.Foreign))
		case stream.RunEvict:
			payload = binary.AppendUvarint(payload, op.ID)
		case stream.RunSupport:
			payload = binary.AppendVarint(payload, int64(op.Delta))
			payload = codec.AppendPoint(payload, op.Point)
			payload = appendCellsPayload(payload, op.Point.Dim(), op.Cells)
		}
		body = codec.AppendFrame(body, frameRunOp, payload)
	}
	return codec.AppendSumFrame(body)
}

// DecodeSupportBatch parses a sealed support body. A run probe (header Run
// set) yields its entries in run order and no probes; any other body yields
// its probes, and a body from EncodeSupport decodes as exactly one probe.
func DecodeSupportBatch(body []byte) (SupportHeader, []SupportProbe, []stream.RunOp, error) {
	var hdr SupportHeader
	frames, err := decodeSealed(body)
	if err != nil {
		return hdr, nil, nil, err
	}
	if err := frames.header(&hdr); err != nil {
		return hdr, nil, nil, err
	}
	if hdr.Run {
		ops, err := decodeRunOps(frames.runOps)
		return hdr, nil, ops, err
	}
	if len(frames.points) == 0 || len(frames.points) != len(frames.cells) {
		return hdr, nil, nil, codec.WireErrorf("router: support body has %d point and %d cell frames",
			len(frames.points), len(frames.cells))
	}
	probes := make([]SupportProbe, len(frames.points))
	for i := range frames.points {
		pt, _, err := codec.DecodePoint(frames.points[i])
		if err != nil {
			return hdr, nil, nil, err
		}
		cells, err := decodeCells(frames.cells[i])
		if err != nil {
			return hdr, nil, nil, err
		}
		probes[i] = SupportProbe{Point: pt, Cells: cells}
	}
	return hdr, probes, nil, nil
}

// DecodeRun parses a sealed run script.
func DecodeRun(body []byte) (RunHeader, []stream.RunOp, error) {
	var hdr RunHeader
	frames, err := decodeSealed(body)
	if err != nil {
		return hdr, nil, err
	}
	if err := frames.header(&hdr); err != nil {
		return hdr, nil, err
	}
	if len(frames.runOps) != hdr.Count {
		return hdr, nil, codec.WireErrorf("router: run op count %d != header %d", len(frames.runOps), hdr.Count)
	}
	ops, err := decodeRunOps(frames.runOps)
	return hdr, ops, err
}

// decodeRunOps parses frameRunOp payloads.
func decodeRunOps(raws [][]byte) ([]stream.RunOp, error) {
	ops := make([]stream.RunOp, len(raws))
	for i, raw := range raws {
		if len(raw) == 0 {
			return nil, codec.WireErrorf("router: empty run op")
		}
		op := &ops[i]
		op.Kind = stream.RunOpKind(raw[0])
		rest := raw[1:]
		uvarint := func(what string) (uint64, error) {
			v, n := binary.Uvarint(rest)
			if n <= 0 {
				return 0, codec.WireErrorf("router: truncated run op %s", what)
			}
			rest = rest[n:]
			return v, nil
		}
		point := func() error {
			pt, n, err := codec.DecodePoint(rest)
			if err != nil {
				return err
			}
			op.Point, rest = pt, rest[n:]
			return nil
		}
		var err error
		switch op.Kind {
		case stream.RunAdmit:
			var foreign uint64
			if err = point(); err == nil {
				if op.Seq, err = uvarint("seq"); err == nil {
					foreign, err = uvarint("foreign count")
					op.Foreign = int(foreign)
				}
			}
		case stream.RunEvict:
			op.ID, err = uvarint("id")
		case stream.RunSupport:
			delta, n := binary.Varint(rest)
			if n <= 0 {
				return nil, codec.WireErrorf("router: truncated run op delta")
			}
			op.Delta, rest = int(delta), rest[n:]
			if err = point(); err == nil {
				op.Cells, err = decodeCells(rest)
			}
			if err == nil && len(op.Cells) > 0 && len(op.Cells[0]) != op.Point.Dim() {
				err = codec.WireErrorf("router: run op has %d-d cells for a %d-d point", len(op.Cells[0]), op.Point.Dim())
			}
		default:
			err = codec.WireErrorf("router: unknown run op kind %d", op.Kind)
		}
		if err != nil {
			return nil, err
		}
	}
	return ops, nil
}
