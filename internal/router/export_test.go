package router

import "dod/internal/retry"

// ShardBreaker exposes a shard's health breaker to the external tests.
func (rt *Router) ShardBreaker(name string) *retry.Breaker { return rt.breaker(name) }
