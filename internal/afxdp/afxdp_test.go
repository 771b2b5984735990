package afxdp

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestRingPushPop(t *testing.T) {
	r := NewRing(4)
	if r.Cap() != 4 || r.Len() != 0 || r.Free() != 4 {
		t.Fatalf("fresh ring: %s", r)
	}
	for i := 0; i < 4; i++ {
		if !r.Push(Desc{Addr: uint64(i)}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.Push(Desc{}) {
		t.Fatal("full ring must reject push")
	}
	for i := 0; i < 4; i++ {
		d, ok := r.Pop()
		if !ok || d.Addr != uint64(i) {
			t.Fatalf("pop %d = %+v, %v", i, d, ok)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("empty ring must reject pop")
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	for cycle := 0; cycle < 10; cycle++ {
		for i := 0; i < 3; i++ {
			if !r.Push(Desc{Addr: uint64(cycle*10 + i)}) {
				t.Fatal("push failed during wraparound")
			}
		}
		for i := 0; i < 3; i++ {
			d, ok := r.Pop()
			if !ok || d.Addr != uint64(cycle*10+i) {
				t.Fatalf("wraparound FIFO violated: %+v", d)
			}
		}
	}
}

func TestRingSizeRounding(t *testing.T) {
	if NewRing(5).Cap() != 8 {
		t.Fatal("size must round up to a power of two")
	}
}

func TestRingPopBatch(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 5; i++ {
		r.Push(Desc{Addr: uint64(i)})
	}
	out := make([]Desc, 8)
	if n := r.PopBatch(out, 3); n != 3 {
		t.Fatalf("batch = %d, want 3", n)
	}
	if n := r.PopBatch(out, 8); n != 2 {
		t.Fatalf("drain = %d, want 2", n)
	}
}

func TestRingFIFOProperty(t *testing.T) {
	f := func(vals []uint64) bool {
		r := NewRing(DefaultRingSize)
		if len(vals) > r.Cap() {
			vals = vals[:r.Cap()]
		}
		for _, v := range vals {
			r.Push(Desc{Addr: v})
		}
		for _, v := range vals {
			d, ok := r.Pop()
			if !ok || d.Addr != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUmemBuffer(t *testing.T) {
	u := NewUmem(4, 256)
	b := u.Buffer(u.ChunkAddr(2), 16)
	b[0] = 0xaa
	if u.Buffer(u.ChunkAddr(2), 1)[0] != 0xaa {
		t.Fatal("buffer must alias the umem area")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access must panic")
		}
	}()
	u.Buffer(u.ChunkAddr(3), 512)
}

// Regression: Buffer only checked the area end, so an access longer than
// the chunk silently returned bytes of the *next* chunk (cross-chunk
// packet corruption). It must panic instead.
func TestUmemBufferCrossChunkPanics(t *testing.T) {
	u := NewUmem(4, 256)
	// Mark the start of chunk 2; a buggy Buffer would expose it through a
	// long access rooted in chunk 1.
	u.Buffer(u.ChunkAddr(2), 1)[0] = 0x5a
	defer func() {
		if recover() == nil {
			t.Fatal("access crossing a chunk boundary must panic")
		}
	}()
	u.Buffer(u.ChunkAddr(1), 257)
}

func TestUmemBufferCrossChunkOffsetPanics(t *testing.T) {
	u := NewUmem(4, 256)
	defer func() {
		if recover() == nil {
			t.Fatal("offset access running past the chunk end must panic")
		}
	}()
	// Within the area, within one chunk length, but crossing into chunk 1.
	u.Buffer(u.ChunkAddr(0)+200, 100)
}

func TestUmemBufferWholeChunkAllowed(t *testing.T) {
	u := NewUmem(4, 256)
	if got := len(u.Buffer(u.ChunkAddr(1), 256)); got != 256 {
		t.Fatalf("whole-chunk access returned %d bytes", got)
	}
}

// Regression: Buffer's capacity ran to the end of the whole area, so an
// append to a packet viewing its chunk wrote into the next chunk's frame.
// The capacity must stop at the chunk end, and a growing append must
// reallocate rather than touch the neighbour.
func TestUmemBufferCapacityEndsAtChunk(t *testing.T) {
	u := NewUmem(4, 256)
	u.Buffer(u.ChunkAddr(2), 1)[0] = 0x5a
	for _, off := range []uint64{0, 100} {
		b := u.Buffer(u.ChunkAddr(1)+off, 10)
		if want := 256 - int(off); cap(b) != want {
			t.Fatalf("offset %d: cap = %d, want %d (chunk end)", off, cap(b), want)
		}
		grown := append(b, make([]byte, 256)...)
		grown[256-int(off)] = 0xff
		if u.Buffer(u.ChunkAddr(2), 1)[0] != 0x5a {
			t.Fatalf("offset %d: append past the chunk end overwrote the next chunk", off)
		}
	}
	if b := u.Buffer(u.ChunkAddr(3), 1); cap(b) != 256 {
		t.Fatalf("last chunk: cap = %d, want 256", cap(b))
	}
}

func TestUmemBufferNegativeLengthPanics(t *testing.T) {
	u := NewUmem(4, 256)
	defer func() {
		if recover() == nil {
			t.Fatal("negative length must panic, not alias earlier memory")
		}
	}()
	u.Buffer(u.ChunkAddr(1), -1)
}

func TestPoolAllocRelease(t *testing.T) {
	u := NewUmem(8, 128)
	p := NewPool(u, LockSpin)
	if p.Free() != 8 {
		t.Fatalf("free = %d", p.Free())
	}
	seen := map[uint64]bool{}
	for i := 0; i < 8; i++ {
		a, ok := p.Alloc()
		if !ok {
			t.Fatal("alloc failed with free chunks")
		}
		if seen[a] {
			t.Fatal("double allocation of a chunk")
		}
		seen[a] = true
	}
	if _, ok := p.Alloc(); ok {
		t.Fatal("exhausted pool must fail")
	}
	for a := range seen {
		p.Release(a)
	}
	if p.Free() != 8 {
		t.Fatal("release must return chunks")
	}
}

func TestPoolLockAccounting(t *testing.T) {
	u := NewUmem(64, 128)

	perPkt := NewPool(u, LockSpin)
	out := make([]uint64, 32)
	perPkt.AllocBatch(out, 32)
	if perPkt.LockAcquisitions != 32 {
		t.Fatalf("per-packet locking: %d acquisitions, want 32", perPkt.LockAcquisitions)
	}

	batched := NewPool(NewUmem(64, 128), LockSpinBatched)
	batched.AllocBatch(out, 32)
	if batched.LockAcquisitions != 1 {
		t.Fatalf("batched locking: %d acquisitions, want 1", batched.LockAcquisitions)
	}
	batched.ReleaseBatch(out[:32])
	if batched.LockAcquisitions != 2 {
		t.Fatalf("batched release: %d acquisitions, want 2", batched.LockAcquisitions)
	}
}

func TestXSKReceivePath(t *testing.T) {
	u := NewUmem(16, 256)
	p := NewPool(u, LockSpinBatched)
	x := NewXSK(1, 0, u)
	x.RefillFill(p, 8)
	if u.Fill.Len() != 8 {
		t.Fatalf("fill ring = %d", u.Fill.Len())
	}

	frame := bytes.Repeat([]byte{0x5a}, 64)
	if !x.KernelDeliver(frame) {
		t.Fatal("deliver failed with fill buffers available")
	}
	out := make([]Desc, 4)
	n := x.UserReceive(out, 4)
	if n != 1 {
		t.Fatalf("received %d", n)
	}
	got := u.Buffer(out[0].Addr, int(out[0].Len))
	if !bytes.Equal(got, frame) {
		t.Fatal("frame bytes corrupted through umem")
	}
	if x.RxDelivered != 1 {
		t.Fatalf("stats: %d delivered", x.RxDelivered)
	}
}

func TestXSKDropWhenFillEmpty(t *testing.T) {
	u := NewUmem(16, 256)
	x := NewXSK(1, 0, u)
	// No refill: fill ring empty.
	if x.KernelDeliver(make([]byte, 64)) {
		t.Fatal("deliver must fail with empty fill ring")
	}
	if x.RxDropFill != 1 {
		t.Fatalf("drop not counted: %+v", x)
	}
}

func TestXSKDropWhenRxFull(t *testing.T) {
	u := NewUmem(DefaultRingSize*2+64, 64)
	p := NewPool(u, LockSpinBatched)
	x := NewXSK(1, 0, u)
	// Keep the fill ring topped up and never consume rx.
	frame := make([]byte, 60)
	delivered := 0
	for i := 0; i < DefaultRingSize+10; i++ {
		x.RefillFill(p, 4)
		if x.KernelDeliver(frame) {
			delivered++
		}
	}
	if delivered != DefaultRingSize {
		t.Fatalf("delivered %d, want %d (rx ring bound)", delivered, DefaultRingSize)
	}
	if x.RxDropRing == 0 {
		t.Fatal("rx-full drops must be counted")
	}
}

func TestXSKTransmitPath(t *testing.T) {
	u := NewUmem(16, 256)
	p := NewPool(u, LockSpinBatched)
	x := NewXSK(1, 0, u)

	addr, _ := p.Alloc()
	copy(u.Buffer(addr, 4), []byte{1, 2, 3, 4})
	if !x.UserTransmit(Desc{Addr: addr, Len: 4}) {
		t.Fatal("transmit enqueue failed")
	}

	// NeedWakeup: no drain before the kick.
	var sent [][]byte
	emit := func(f []byte) { sent = append(sent, append([]byte(nil), f...)) }
	if n := x.KernelDrainTx(8, emit); n != 0 {
		t.Fatalf("drained %d before kick", n)
	}
	if !x.Kick() {
		t.Fatal("kick must be needed")
	}
	if n := x.KernelDrainTx(8, emit); n != 1 {
		t.Fatalf("drained %d after kick", n)
	}
	if len(sent) != 1 || !bytes.Equal(sent[0], []byte{1, 2, 3, 4}) {
		t.Fatalf("emitted %v", sent)
	}

	// Completion ring now holds the buffer; reclaim it.
	free := p.Free()
	if got := x.ReclaimCompletions(p, 8); got != 1 {
		t.Fatalf("reclaimed %d", got)
	}
	if p.Free() != free+1 {
		t.Fatal("completion reclaim must return the chunk")
	}
}

func TestXSKNoWakeupMode(t *testing.T) {
	u := NewUmem(16, 256)
	p := NewPool(u, LockSpinBatched)
	x := NewXSK(1, 0, u)
	x.NeedWakeup = false
	addr, _ := p.Alloc()
	x.UserTransmit(Desc{Addr: addr, Len: 8})
	if x.Kick() {
		t.Fatal("kick must be unnecessary in no-wakeup mode")
	}
	if n := x.KernelDrainTx(8, func([]byte) {}); n != 1 {
		t.Fatalf("no-wakeup drain = %d", n)
	}
}

func TestXSKRefillBoundedByFillRing(t *testing.T) {
	u := NewUmem(DefaultRingSize*4, 64)
	p := NewPool(u, LockSpinBatched)
	x := NewXSK(1, 0, u)
	n := x.RefillFill(p, DefaultRingSize*2)
	if n != DefaultRingSize {
		t.Fatalf("refill = %d, want fill-ring capacity %d", n, DefaultRingSize)
	}
}

func TestRoundTripForwarding(t *testing.T) {
	// Simulate the forwarding loop: receive, process, transmit the same
	// buffer, reclaim, refill — chunk count must stay conserved.
	u := NewUmem(64, 256)
	p := NewPool(u, LockSpinBatched)
	x := NewXSK(1, 0, u)
	x.RefillFill(p, 32)

	total := func() int { return p.Free() + u.Fill.Len() + x.Rx.Len() + x.Tx.Len() + u.Completion.Len() }
	start := total()

	frame := make([]byte, 60)
	for round := 0; round < 100; round++ {
		if !x.KernelDeliver(frame) {
			t.Fatalf("round %d: deliver failed", round)
		}
		out := make([]Desc, 1)
		if x.UserReceive(out, 1) != 1 {
			t.Fatalf("round %d: receive failed", round)
		}
		if !x.UserTransmit(out[0]) {
			t.Fatalf("round %d: transmit failed", round)
		}
		x.Kick()
		x.KernelDrainTx(1, func([]byte) {})
		x.ReclaimCompletions(p, 4)
		x.RefillFill(p, 1)
		if got := total(); got != start {
			t.Fatalf("round %d: chunk leak: %d != %d", round, got, start)
		}
	}
	if x.TxCompleted != 100 || x.RxDelivered != 100 {
		t.Fatalf("stats: rx=%d tx=%d", x.RxDelivered, x.TxCompleted)
	}
}
