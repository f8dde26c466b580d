package server

import (
	"sync"

	"repro/internal/core"
)

// flightGroup deduplicates concurrent studies of the same profile key: the
// first request for a key becomes the leader and runs the work on its own
// goroutine; every request that arrives while the call is in flight joins
// it and shares the result. The work runs detached from any single
// request's context — a waiter whose deadline expires walks away with 504
// while the study completes and lands in the LRU for the next asker, so a
// storm of impatient clients cannot re-trigger the same simulation.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall // guarded by mu

	wg sync.WaitGroup // running leaders; Server.Shutdown waits on it
}

// flightCall is one in-flight (or completed) computation. p and err are
// not mutex-guarded: the leader writes them before closing done, and
// waiters read them only after <-done, so the channel is the happens-before
// edge.
type flightCall struct {
	done chan struct{} // closed when profile/err are valid
	p    *core.Profile
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flightCall)}
}

// do returns the in-flight call for key, creating it when absent. leader
// reports whether this caller created the call and must run it: exactly
// one caller per key at a time sees leader==true. The call is removed from
// the group once fn completes, so a later miss (after LRU eviction)
// computes afresh.
func (g *flightGroup) do(key string, fn func() (*core.Profile, error)) (c *flightCall, leader bool) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		return c, false
	}
	c = &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	g.wg.Add(1)
	// The leader is deliberately detached from its spawner: do returns immediately and every caller (including this one) joins via <-c.done in the handler; Server.Shutdown waits for it through wg
	go func() {
		defer g.wg.Done()
		c.p, c.err = fn()
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	return c, true
}
