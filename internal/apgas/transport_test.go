package apgas_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apgas/transport"
	"github.com/rgml/rgml/internal/obs"
)

// fakeTransport records lifecycle calls and hands the runtime's Handler
// back to the test, so transport-detected deaths can be injected
// directly.
type fakeTransport struct {
	mu      sync.Mutex
	handler transport.Handler
	kills   []int
	grown   int
	closed  bool
}

func (f *fakeTransport) Name() string { return "fake" }

func (f *fakeTransport) Start(places int, h transport.Handler) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.handler = h
	return nil
}

func (f *fakeTransport) Kill(place int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.kills = append(f.kills, place)
	return nil
}

func (f *fakeTransport) Grow(n int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.grown += n
	return nil
}

func (f *fakeTransport) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return nil
}

func (f *fakeTransport) placeDead(place int, cause transport.DeathCause) {
	f.mu.Lock()
	h := f.handler
	f.mu.Unlock()
	h.PlaceDead(place, cause)
}

// TestNetModelChargedByRuntime pins that the runtime, not the backend,
// charges the NetModel: a place-crossing Transfer sleeps its modeled
// delay and adds exactly that to apgas.net.simulated_ns, on the default
// local backend and on any other. Only the Transfer carries bytes and
// the latency is zero, so every other hop of the run is free.
func TestNetModelChargedByRuntime(t *testing.T) {
	const bytes = 2000
	net := apgas.NetModel{BytePeriod: time.Microsecond}
	for _, tp := range []transport.Transport{nil, &fakeTransport{}} {
		reg := obs.NewRegistry()
		opts := []apgas.Option{apgas.WithPlaces(3), apgas.WithNet(net), apgas.WithObs(reg)}
		if tp != nil {
			opts = append(opts, apgas.WithTransport(tp))
		}
		rt, err := apgas.New(opts...)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var took time.Duration
		err = rt.Finish(func(ctx *apgas.Ctx) {
			ctx.AsyncAt(rt.Place(1), func(c *apgas.Ctx) {
				start := time.Now()
				c.Transfer(rt.Place(2), bytes)
				took = time.Since(start)
			})
		})
		rt.Shutdown()
		if err != nil {
			t.Fatalf("%s: Finish: %v", rt.TransportName(), err)
		}
		want := bytes * time.Microsecond
		if got := reg.CounterValue("apgas.net.simulated_ns"); got != int64(want) {
			t.Fatalf("%s: apgas.net.simulated_ns = %d, want %d", rt.TransportName(), got, int64(want))
		}
		if took < want {
			t.Fatalf("%s: Transfer returned after %v, want at least the modeled %v", rt.TransportName(), took, want)
		}
	}
}

// TestIntraPlaceHopFree pins the other half of the cost model: moves
// within one place are neither charged nor counted, however large.
func TestIntraPlaceHopFree(t *testing.T) {
	reg := obs.NewRegistry()
	rt, err := apgas.New(
		apgas.WithPlaces(2),
		apgas.WithNet(apgas.NetModel{Latency: 200 * time.Millisecond, BytePeriod: time.Second}),
		apgas.WithObs(reg),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()
	err = rt.Finish(func(ctx *apgas.Ctx) {
		ctx.Transfer(ctx.Here, 1<<20)
		ctx.TransferSnapshot(ctx.Here, 1<<20)
		ctx.At(ctx.Here, func(*apgas.Ctx) {})
	})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	for _, name := range []string{"apgas.net.simulated_ns", "apgas.net.messages", "apgas.net.bytes"} {
		if got := reg.CounterValue(name); got != 0 {
			t.Fatalf("%s = %d after intra-place moves only, want 0", name, got)
		}
	}
}

func TestWithTransportNilRejected(t *testing.T) {
	_, err := apgas.New(apgas.WithTransport(nil))
	if !errors.Is(err, apgas.ErrBadOption) {
		t.Fatalf("New(WithTransport(nil)) = %v, want ErrBadOption", err)
	}
}

func TestTransportSeamTrafficAndLifecycle(t *testing.T) {
	ft := &fakeTransport{}
	reg := obs.NewRegistry()
	rt, err := apgas.New(
		apgas.WithPlaces(3),
		apgas.WithResilient(true),
		apgas.WithTransport(ft),
		apgas.WithObs(reg),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if rt.TransportName() != "fake" {
		t.Fatalf("TransportName() = %q", rt.TransportName())
	}

	err = rt.Finish(func(ctx *apgas.Ctx) {
		ctx.AsyncAt(rt.Place(1), func(c *apgas.Ctx) {
			c.Transfer(rt.Place(2), 512)
			c.TransferSnapshot(rt.Place(2), 4)
			c.Transfer(c.Here, 1<<20) // intra-place: free and uncounted
		})
	})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}

	// The runtime accounts every place-crossing message per class on
	// any backend; the seam itself carries none of them.
	if got := reg.CounterValue("apgas.transport.task.messages"); got == 0 {
		t.Fatal("no task-class messages accounted")
	}
	if got := reg.CounterValue("apgas.transport.control.messages"); got == 0 {
		t.Fatal("no control-class (ledger) messages accounted")
	}
	for _, c := range []struct {
		name string
		want int64
	}{
		{"apgas.transport.data.messages", 1},
		{"apgas.transport.data.bytes", 512},
		{"apgas.transport.snapshot.messages", 1},
		{"apgas.transport.snapshot.bytes", 4},
		{"apgas.net.bytes", 516},
	} {
		if got := reg.CounterValue(c.name); got != c.want {
			t.Fatalf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	var sum int64
	for c := 0; c < transport.NumClasses; c++ {
		sum += reg.CounterValue("apgas.transport." + transport.Class(c).String() + ".messages")
	}
	if got := reg.CounterValue("apgas.net.messages"); got != sum {
		t.Fatalf("apgas.net.messages = %d, want the per-class sum %d", got, sum)
	}

	// Administrative kill reaches the backend after the runtime marked
	// the place dead.
	if err := rt.Kill(rt.Place(2)); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	ft.mu.Lock()
	kills := append([]int(nil), ft.kills...)
	ft.mu.Unlock()
	if len(kills) != 1 || kills[0] != 2 {
		t.Fatalf("transport kills = %v, want [2]", kills)
	}

	// AddPlaces grows the backend.
	if _, err := rt.AddPlaces(2); err != nil {
		t.Fatalf("AddPlaces: %v", err)
	}
	ft.mu.Lock()
	grown := ft.grown
	ft.mu.Unlock()
	if grown != 2 {
		t.Fatalf("transport grown = %d, want 2", grown)
	}

	rt.Shutdown()
	ft.mu.Lock()
	closed := ft.closed
	ft.mu.Unlock()
	if !closed {
		t.Fatal("Shutdown did not close the transport")
	}
}

// TestTransportDeathFeedsBroadcastPath injects detector-style death
// reports and verifies they ride the same dead-place machinery as kills:
// IsDead flips, orphan tasks observe DeadPlaceError, stats are counted
// once, and place zero plus duplicates are ignored.
func TestTransportDeathFeedsBroadcastPath(t *testing.T) {
	ft := &fakeTransport{}
	rt, err := apgas.New(
		apgas.WithPlaces(4),
		apgas.WithResilient(true),
		apgas.WithTransport(ft),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()

	ft.placeDead(3, transport.CauseTimeout)
	if !rt.IsDead(rt.Place(3)) {
		t.Fatal("transport-reported death did not mark the place dead")
	}
	s := rt.Stats()
	if s.PlacesFailed != 1 {
		t.Fatalf("PlacesFailed = %d, want 1", s.PlacesFailed)
	}
	if s.PlacesKilled != 0 {
		t.Fatalf("PlacesKilled = %d, want 0 (real failure, not a kill)", s.PlacesKilled)
	}

	// Duplicate and bogus reports are no-ops.
	ft.placeDead(3, transport.CauseConn)
	ft.placeDead(0, transport.CauseTimeout)
	ft.placeDead(99, transport.CauseTimeout)
	s = rt.Stats()
	if s.PlacesFailed != 1 {
		t.Fatalf("after duplicates, PlacesFailed = %d, want 1", s.PlacesFailed)
	}
	if rt.IsDead(rt.Place(0)) {
		t.Fatal("place zero marked dead by a transport report")
	}

	// The corpse delivers DeadPlaceError exactly like a killed place.
	err = rt.Finish(func(ctx *apgas.Ctx) {
		ctx.AsyncAt(rt.Place(3), func(c *apgas.Ctx) {})
	})
	var dpe *apgas.DeadPlaceError
	if !errors.As(err, &dpe) || dpe.Place.ID != 3 {
		t.Fatalf("Finish at failed place = %v, want DeadPlaceError{place 3}", err)
	}
}

// TestTransportDeathRacesKill drives a concurrent administrative kill and
// detector report at the same place: exactly one of the two accounting
// paths must win.
func TestTransportDeathRacesKill(t *testing.T) {
	for i := 0; i < 50; i++ {
		ft := &fakeTransport{}
		rt, err := apgas.New(
			apgas.WithPlaces(3),
			apgas.WithResilient(true),
			apgas.WithTransport(ft),
		)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); rt.Kill(rt.Place(1)) }()
		go func() { defer wg.Done(); ft.placeDead(1, transport.CauseConn) }()
		wg.Wait()
		s := rt.Stats()
		if s.PlacesKilled+s.PlacesFailed != 1 {
			t.Fatalf("iteration %d: PlacesKilled=%d PlacesFailed=%d, want exactly one death accounted",
				i, s.PlacesKilled, s.PlacesFailed)
		}
		rt.Shutdown()
	}
}
