// Package local is the default in-process transport backend: every place
// lives in the one OS process, so there are no place bodies to spawn,
// kill or grow, no failure detector that could perturb deterministic
// chaos schedules, and no data plane (it does not implement
// transport.Executor). The runtime charges the NetModel for every
// place-crossing message itself, so this backend does nothing at all.
package local

import "github.com/rgml/rgml/internal/apgas/transport"

// Transport is the in-process backend. The zero value is ready to use.
type Transport struct{}

// New builds the in-process backend.
func New() *Transport { return &Transport{} }

// Name implements transport.Transport.
func (t *Transport) Name() string { return "local" }

// Start implements transport.Transport. The local backend has no bodies
// to spawn and never reports deaths, so it ignores the handler.
func (t *Transport) Start(places int, h transport.Handler) error { return nil }

// Kill implements transport.Transport. Places have no external bodies in
// this backend; the runtime's own bookkeeping is the whole kill.
func (t *Transport) Kill(place int) error { return nil }

// Grow implements transport.Transport. New in-process places need no
// backend support.
func (t *Transport) Grow(n int) error { return nil }

// Close implements transport.Transport.
func (t *Transport) Close() error { return nil }
