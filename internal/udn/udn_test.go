package udn

import (
	"cmp"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"tshmem/internal/arch"
	"tshmem/internal/mesh"
	"tshmem/internal/vtime"
)

func gxNet(t *testing.T) *Network {
	t.Helper()
	geo, err := mesh.NewGeometry(arch.Gx8036(), 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	return New(geo)
}

func proNet(t *testing.T) *Network {
	t.Helper()
	geo, err := mesh.NewGeometry(arch.Pro64(), 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	return New(geo)
}

func port(t *testing.T, n *Network, cpu int) *Port {
	t.Helper()
	p, err := n.Port(cpu)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPortLookup(t *testing.T) {
	n := gxNet(t)
	if n.Tiles() != 36 {
		t.Fatalf("Tiles = %d, want 36", n.Tiles())
	}
	if _, err := n.Port(-1); err == nil {
		t.Error("negative CPU accepted")
	}
	if _, err := n.Port(36); err == nil {
		t.Error("out-of-range CPU accepted")
	}
	if p := port(t, n, 7); p.CPU() != 7 {
		t.Errorf("CPU() = %d, want 7", p.CPU())
	}
}

func TestSendRecvDelivers(t *testing.T) {
	n := gxNet(t)
	defer n.Close()
	var sc, rc vtime.Clock
	sender, receiver := port(t, n, 14), port(t, n, 13)

	if err := sender.Send(&sc, 13, 2, 0xBEEF, []uint64{42, 43}); err != nil {
		t.Fatal(err)
	}
	pkt, err := receiver.Recv(&rc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.Src != 14 || pkt.Tag != 0xBEEF || pkt.Len() != 2 || pkt.Word(0) != 42 {
		t.Errorf("packet corrupted: %+v", pkt)
	}
	// Receiver's clock advanced to the arrival time.
	if rc.Now() != pkt.Arrive {
		t.Errorf("receiver clock %v != arrival %v", rc.Now(), pkt.Arrive)
	}
	if rc.Now() <= 0 || sc.Now() <= 0 {
		t.Error("clocks did not advance")
	}
}

// TestOneWayLatencyMatchesTableIII measures a ping-pong exactly like the
// paper: the halved round-trip of a 1-word send and a 1-word ack must land
// on the Table III neighbor latency.
func TestOneWayLatencyMatchesTableIII(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mk     func(*testing.T) *Network
		lo, hi float64
		s, r   int
	}{
		{"Gx neighbors", gxNet, 20.5, 22.5, 14, 13},
		{"Pro neighbors", proNet, 17.5, 19.5, 14, 13},
		{"Gx corners", gxNet, 30.5, 32.5, 0, 35},
		{"Pro corners", proNet, 31.5, 33.5, 0, 35},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.mk(t)
			defer n.Close()
			var sc, rc vtime.Clock
			a, b := port(t, n, tc.s), port(t, n, tc.r)

			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				pkt, err := b.Recv(&rc, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if err := b.Send(&rc, pkt.Src, 0, 0, []uint64{1}); err != nil {
					t.Error(err)
				}
			}()
			start := sc.Now()
			if err := a.Send(&sc, tc.r, 0, 0, []uint64{1}); err != nil {
				t.Fatal(err)
			}
			if _, err := a.Recv(&sc, 0); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			half := sc.Now().Sub(start).Ns() / 2
			if half < tc.lo || half > tc.hi {
				t.Errorf("halved RTT = %.1f ns, want [%.1f, %.1f]", half, tc.lo, tc.hi)
			}
		})
	}
}

func TestSendValidation(t *testing.T) {
	n := gxNet(t)
	defer n.Close()
	var c vtime.Clock
	p := port(t, n, 0)
	if err := p.Send(&c, 1, 4, 0, []uint64{1}); !errors.Is(err, ErrBadQueue) {
		t.Errorf("bad queue: %v", err)
	}
	if err := p.Send(&c, 1, -1, 0, []uint64{1}); !errors.Is(err, ErrBadQueue) {
		t.Errorf("negative queue: %v", err)
	}
	if err := p.Send(&c, 99, 0, 0, []uint64{1}); !errors.Is(err, ErrBadCPU) {
		t.Errorf("bad cpu: %v", err)
	}
	if err := p.Send(&c, 1, 0, 0, nil); !errors.Is(err, ErrPayload) {
		t.Errorf("empty payload: %v", err)
	}
	if err := p.Send(&c, 1, 0, 0, make([]uint64, 128)); !errors.Is(err, ErrPayload) {
		t.Errorf("oversize payload: %v", err)
	}
	if _, err := p.Recv(&c, 9); !errors.Is(err, ErrBadQueue) {
		t.Errorf("recv bad queue: %v", err)
	}
	if _, _, err := p.TryRecv(&c, 9); !errors.Is(err, ErrBadQueue) {
		t.Errorf("tryrecv bad queue: %v", err)
	}
}

func TestDemuxQueuesIndependent(t *testing.T) {
	n := gxNet(t)
	defer n.Close()
	var sc, rc vtime.Clock
	s, r := port(t, n, 0), port(t, n, 1)
	// Fill queue 0 and 1 with distinct tags; drain 1 first.
	if err := s.Send(&sc, 1, 0, 100, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Send(&sc, 1, 1, 200, []uint64{2}); err != nil {
		t.Fatal(err)
	}
	pkt, err := r.Recv(&rc, 1)
	if err != nil || pkt.Tag != 200 {
		t.Fatalf("queue 1: %+v, %v", pkt, err)
	}
	pkt, err = r.Recv(&rc, 0)
	if err != nil || pkt.Tag != 100 {
		t.Fatalf("queue 0: %+v, %v", pkt, err)
	}
}

func TestTryRecv(t *testing.T) {
	n := gxNet(t)
	defer n.Close()
	var sc, rc vtime.Clock
	s, r := port(t, n, 0), port(t, n, 1)
	if _, ok, err := r.TryRecv(&rc, 0); ok || err != nil {
		t.Fatalf("TryRecv on empty queue: ok=%v err=%v", ok, err)
	}
	if err := s.Send(&sc, 1, 0, 7, []uint64{9}); err != nil {
		t.Fatal(err)
	}
	pkt, ok, err := r.TryRecv(&rc, 0)
	if !ok || err != nil || pkt.Tag != 7 {
		t.Fatalf("TryRecv after send: ok=%v err=%v pkt=%+v", ok, err, pkt)
	}
}

func TestInterruptRoundTrip(t *testing.T) {
	n := gxNet(t)
	defer n.Close()
	var callerClock vtime.Clock
	caller, target := port(t, n, 0), port(t, n, 35)

	const svcNs = 500.0
	err := target.SetHandler(func(req Packet) ([]uint64, vtime.Duration) {
		return []uint64{req.Word(0) * 2}, vtime.FromNs(svcNs)
	})
	if err != nil {
		t.Fatal(err)
	}

	rep, err := caller.Interrupt(&callerClock, 35, 1, []uint64{21})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Len() != 1 || rep.Word(0) != 42 {
		t.Errorf("reply = %v, want [42]", rep.Payload())
	}
	// Elapsed must cover two corner traversals (~31.5 ns each), the
	// interrupt overhead (110 ns on the Gx) and the service time.
	elapsed := callerClock.Now().Sub(0).Ns()
	wantMin := 2*30 + 110 + svcNs
	if elapsed < wantMin || elapsed > wantMin+40 {
		t.Errorf("interrupt RTT = %.0f ns, want ~%.0f", elapsed, wantMin+15)
	}
}

func TestInterruptSerializes(t *testing.T) {
	// Two interrupts arriving together must be serviced back to back in
	// virtual time: the later reply reflects both service windows.
	n := gxNet(t)
	defer n.Close()
	target := port(t, n, 1)
	const svcNs = 1000.0
	if err := target.SetHandler(func(req Packet) ([]uint64, vtime.Duration) {
		return []uint64{0}, vtime.FromNs(svcNs)
	}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	ends := make([]vtime.Time, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var c vtime.Clock
			p := port(t, n, 2+i)
			if _, err := p.Interrupt(&c, 1, 0, []uint64{1}); err != nil {
				t.Error(err)
				return
			}
			ends[i] = c.Now()
		}(i)
	}
	wg.Wait()
	later := math.Max(ends[0].Ns(), ends[1].Ns())
	if later < 2*svcNs {
		t.Errorf("later completion %.0f ns does not reflect serialization (want >= %.0f)", later, 2*svcNs)
	}
}

func TestInterruptErrors(t *testing.T) {
	gx := gxNet(t)
	defer gx.Close()
	var c vtime.Clock

	// No handler installed.
	if _, err := port(t, gx, 0).Interrupt(&c, 1, 0, []uint64{1}); !errors.Is(err, ErrNoHandler) {
		t.Errorf("no handler: %v", err)
	}
	// TILEPro has no UDN interrupts at all.
	pro := proNet(t)
	defer pro.Close()
	if err := port(t, pro, 0).SetHandler(func(Packet) ([]uint64, vtime.Duration) { return nil, 0 }); !errors.Is(err, ErrNoInterrupts) {
		t.Errorf("Pro SetHandler: %v", err)
	}
	if _, err := port(t, pro, 0).Interrupt(&c, 1, 0, []uint64{1}); !errors.Is(err, ErrNoInterrupts) {
		t.Errorf("Pro Interrupt: %v", err)
	}
	// Payload validation.
	if err := port(t, gx, 5).SetHandler(func(Packet) ([]uint64, vtime.Duration) { return nil, 0 }); err != nil {
		t.Fatal(err)
	}
	if _, err := port(t, gx, 0).Interrupt(&c, 5, 0, nil); !errors.Is(err, ErrPayload) {
		t.Errorf("empty interrupt payload: %v", err)
	}
	if _, err := port(t, gx, 0).Interrupt(&c, 99, 0, []uint64{1}); !errors.Is(err, ErrBadCPU) {
		t.Errorf("bad cpu: %v", err)
	}
}

func TestCloseUnblocksReceivers(t *testing.T) {
	n := gxNet(t)
	r := port(t, n, 3)
	errc := make(chan error, 1)
	go func() {
		var c vtime.Clock
		_, err := r.Recv(&c, 0)
		errc <- err
	}()
	n.Close()
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Errorf("Recv after close: %v", err)
	}
	var c vtime.Clock
	if err := r.Send(&c, 4, 0, 0, []uint64{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after close: %v", err)
	}
	if err := r.SetHandler(func(Packet) ([]uint64, vtime.Duration) { return nil, 0 }); !errors.Is(err, ErrClosed) {
		t.Errorf("SetHandler after close: %v", err)
	}
}

func TestRecvDrainsQueuedAfterClose(t *testing.T) {
	n := gxNet(t)
	var sc, rc vtime.Clock
	s, r := port(t, n, 0), port(t, n, 1)
	if err := s.Send(&sc, 1, 0, 11, []uint64{5}); err != nil {
		t.Fatal(err)
	}
	n.Close()
	pkt, err := r.Recv(&rc, 0)
	if err != nil || pkt.Tag != 11 {
		t.Errorf("queued packet lost on close: %+v, %v", pkt, err)
	}
	if _, err := r.Recv(&rc, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("empty closed queue: %v", err)
	}
}

func TestManyToOneOrdering(t *testing.T) {
	// All 35 other tiles send to tile 0; every packet must arrive exactly
	// once with a positive, bounded arrival timestamp.
	n := gxNet(t)
	defer n.Close()
	recvPort := port(t, n, 0)
	var wg sync.WaitGroup
	for cpu := 1; cpu < 36; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			var c vtime.Clock
			if err := port(t, n, cpu).Send(&c, 0, 3, uint32(cpu), []uint64{uint64(cpu)}); err != nil {
				t.Error(err)
			}
		}(cpu)
	}
	var rc vtime.Clock
	seen := make(map[uint32]bool)
	for i := 0; i < 35; i++ {
		pkt, err := recvPort.Recv(&rc, 3)
		if err != nil {
			t.Fatal(err)
		}
		if seen[pkt.Tag] {
			t.Fatalf("duplicate packet from %d", pkt.Tag)
		}
		seen[pkt.Tag] = true
	}
	wg.Wait()
	if len(seen) != 35 {
		t.Errorf("received %d distinct packets, want 35", len(seen))
	}
}

// TestHostScheduler drives the default scheduler the way stand-alone
// callers do: two free-running goroutines ping-pong 10 000 packets, each
// blocking in Recv for the other's reply; a sender blocked on a full queue
// resumes when the receiver drains it; and a third goroutine sits blocked
// in Recv on a queue nothing is ever sent to until Close wakes it with
// ErrClosed.
func TestHostScheduler(t *testing.T) {
	const rounds = 10000
	n := gxNet(t)
	a, b, idle := port(t, n, 0), port(t, n, 1), port(t, n, 2)
	word := []uint64{7}
	idleErr, echoErr, sent := make(chan error, 1), make(chan error, 1), make(chan error, 1)
	go func() {
		var c vtime.Clock
		_, err := idle.Recv(&c, 0)
		idleErr <- err
	}()
	go func() {
		var c vtime.Clock
		var err error
		for i := 0; i < rounds && err == nil; i++ {
			var pkt Packet
			if pkt, err = b.Recv(&c, 0); err == nil {
				err = b.Send(&c, a.CPU(), 0, pkt.Tag, word)
			}
		}
		echoErr <- err
	}()
	var c vtime.Clock
	for i := 0; i < rounds; i++ {
		if err := a.Send(&c, b.CPU(), 0, uint32(i), word); err != nil {
			t.Fatal(err)
		}
		if pkt, err := a.Recv(&c, 0); err != nil || pkt.Tag != uint32(i) {
			t.Fatalf("round %d: reply %+v, %v", i, pkt, err)
		}
	}
	if err := <-echoErr; err != nil {
		t.Fatal(err)
	}

	// Backpressure: queueCap packets fit, the next Send blocks until one
	// is received.
	for i := 0; i < queueCap; i++ {
		if err := a.Send(&c, b.CPU(), 1, uint32(i), word); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		var sc vtime.Clock
		sent <- a.Send(&sc, b.CPU(), 1, queueCap, word)
	}()
	select {
	case err := <-sent:
		t.Fatalf("Send into a full queue returned (%v) before anything was received", err)
	case <-time.After(10 * time.Millisecond):
	}
	for i := 0; i <= queueCap; i++ {
		if pkt, err := b.Recv(&c, 1); err != nil || pkt.Tag != uint32(i) {
			t.Fatalf("drain %d: %+v, %v", i, pkt, err)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}

	n.Close()
	if err := <-idleErr; !errors.Is(err, ErrClosed) {
		t.Errorf("receiver blocked at Close got %v, want ErrClosed", err)
	}
}

// TestSendRouteMatchesGeometry replays seeded random (sender, dst, words)
// streams through Send — half the steps repeat the sender's previous
// destination and length, which is what a protocol chain does and what the
// port's remembered route serves — and checks every delivered packet's
// injection and arrival stamps against Geometry.Path computed here: the
// remembered route may never differ from the computed one.
func TestSendRouteMatchesGeometry(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := gxNet(t)
		geo, maxWords := n.Geometry(), n.Geometry().Chip().UDNMaxWords
		type sender struct {
			port       *Port
			clock      vtime.Clock
			dst, words int
		}
		senders := make([]sender, 5)
		for i := range senders {
			senders[i].port = port(t, n, rng.Intn(n.Tiles()))
		}
		for step := 0; step < 2000; step++ {
			s := &senders[rng.Intn(len(senders))]
			if s.words == 0 || rng.Intn(2) == 0 {
				s.dst, s.words = rng.Intn(n.Tiles()), 1+rng.Intn(maxWords)
			}
			s.clock.Advance(vtime.Duration(rng.Intn(1000)))
			want, err := geo.Path(s.port.CPU(), s.dst, s.words)
			if err != nil {
				t.Fatal(err)
			}
			t0, dq := s.clock.Now(), rng.Intn(4)
			if err := s.port.Send(&s.clock, s.dst, dq, uint32(step), make([]uint64, s.words)); err != nil {
				t.Fatal(err)
			}
			var pkt Packet
			if err := port(t, n, s.dst).RecvRaw(dq, &pkt); err != nil {
				t.Fatal(err)
			}
			if pkt.Tag != uint32(step) || pkt.Src != s.port.CPU() || pkt.Len() != s.words {
				t.Fatalf("seed %d step %d: received %+v, sent tag %d from %d with %d words", seed, step, pkt, step, s.port.CPU(), s.words)
			}
			if pkt.Sent != t0.Add(want.Send) || pkt.Arrive != pkt.Sent.Add(want.Wire) || s.clock.Now() != pkt.Sent {
				t.Fatalf("seed %d step %d: %d -> %d, %d words from %v: sent %v arrive %v (clock %v), Geometry.Path says send %v wire %v",
					seed, step, s.port.CPU(), s.dst, s.words, t0, pkt.Sent, pkt.Arrive, s.clock.Now(), want.Send, want.Wire)
			}
		}
		n.Close()
	}
}

// TestFirstRingsShareSlab fills every demux queue of a 36-tile network to
// queueMinBuf packets from 36 free-running senders at once (the default
// host scheduler; the race detector watches the carve), so that 144 queues
// take their first ring from the network's slabs — four slabs' worth — while
// others do the same. No two rings may share memory, a ring's capacity must
// stop where its neighbour starts, and a queue pushed past queueMinBuf must
// move to storage of its own with its packets in order and everyone else's
// untouched.
func TestFirstRingsShareSlab(t *testing.T) {
	n := gxNet(t)
	defer n.Close()
	tiles := n.Tiles()
	word := func(src, dq, seq int) uint64 { return uint64(src)<<16 | uint64(dq)<<8 | uint64(seq) }
	var wg sync.WaitGroup
	for src := 0; src < tiles; src++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c vtime.Clock
			p := port(t, n, src)
			for seq := 0; seq < queueMinBuf; seq++ {
				for dq := 0; dq < 4; dq++ {
					if err := p.Send(&c, (src+1)%tiles, dq, 0, []uint64{word(src, dq, seq)}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	const pktBytes = unsafe.Sizeof(Packet{})
	span := func(buf []Packet) (lo, hi uintptr) {
		lo = uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
		return lo, lo + uintptr(cap(buf))*pktBytes
	}
	type ring struct{ lo, hi uintptr }
	disjoint := func() {
		t.Helper()
		var rings []ring
		for i := range n.ports {
			for dq := range n.ports[i].queues {
				lo, hi := span(n.ports[i].queues[dq].buf)
				rings = append(rings, ring{lo, hi})
			}
		}
		slices.SortFunc(rings, func(a, b ring) int { return cmp.Compare(a.lo, b.lo) })
		for i := 1; i < len(rings); i++ {
			if rings[i].lo < rings[i-1].hi {
				t.Fatalf("two queues' rings overlap: [%#x,%#x) and [%#x,%#x)", rings[i-1].lo, rings[i-1].hi, rings[i].lo, rings[i].hi)
			}
		}
	}
	for i := range n.ports {
		for dq := range n.ports[i].queues {
			if q := &n.ports[i].queues[dq]; len(q.buf) != queueMinBuf || cap(q.buf) != queueMinBuf || q.n != queueMinBuf {
				t.Fatalf("tile %d queue %d: ring of %d (cap %d) holding %d, want a full first ring of %d",
					i, dq, len(q.buf), cap(q.buf), q.n, queueMinBuf)
			}
		}
	}
	disjoint()

	// One more packet to tile 1's queue 2 outgrows its slab ring.
	var c vtime.Clock
	grown := &n.ports[1].queues[2]
	slabLo, slabHi := span(grown.buf)
	if err := port(t, n, 0).Send(&c, 1, 2, 0, []uint64{word(0, 2, queueMinBuf)}); err != nil {
		t.Fatal(err)
	}
	if lo, hi := span(grown.buf); len(grown.buf) != 2*queueMinBuf || lo < slabHi && slabLo < hi {
		t.Fatalf("the outgrown queue holds a ring of %d at [%#x,%#x); its slab ring was [%#x,%#x)", len(grown.buf), lo, hi, slabLo, slabHi)
	}
	disjoint()

	for dst := 0; dst < tiles; dst++ {
		src := (dst + tiles - 1) % tiles
		for dq := 0; dq < 4; dq++ {
			want := queueMinBuf
			if dst == 1 && dq == 2 {
				want++
			}
			for seq := 0; seq < want; seq++ {
				pkt, ok, err := port(t, n, dst).TryRecv(&c, dq)
				if err != nil || !ok || pkt.Src != src || pkt.Word(0) != word(src, dq, seq) {
					t.Fatalf("tile %d queue %d packet %d: %+v (ok %v, err %v), want word %#x from tile %d",
						dst, dq, seq, pkt, ok, err, word(src, dq, seq), src)
				}
			}
			if _, ok, _ := port(t, n, dst).TryRecv(&c, dq); ok {
				t.Fatalf("tile %d queue %d holds more than was sent", dst, dq)
			}
		}
	}
}
