package packet

import (
	"bytes"
	"testing"

	"ovsxdp/internal/packet/hdr"
)

func TestNewPacketDefaults(t *testing.T) {
	p := New(make([]byte, 64))
	if p.Len() != 64 {
		t.Fatalf("len = %d", p.Len())
	}
	if p.L3Offset != -1 || p.L4Offset != -1 {
		t.Fatal("header offsets must start unset")
	}
	if p.InPort != 0 || p.RecircID != 0 || p.CtState != 0 {
		t.Fatal("metadata must start zero")
	}
}

func TestResetMetadata(t *testing.T) {
	p := New(make([]byte, 10))
	p.InPort = 3
	p.RecircID = 2
	p.CtState = CtTracked | CtEstablished
	p.L3Offset = 14
	p.Tunnel = &TunnelInfo{VNI: 9}
	p.ResetMetadata()
	if p.InPort != 0 || p.RecircID != 0 || p.CtState != 0 || p.L3Offset != -1 || p.Tunnel != nil {
		t.Fatalf("reset incomplete: %+v", p.Metadata)
	}
	if p.Len() != 10 {
		t.Fatal("reset must keep the buffer")
	}
}

func TestClone(t *testing.T) {
	p := New([]byte{1, 2, 3})
	p.InPort = 7
	p.Tunnel = &TunnelInfo{VNI: 5, DstIP: hdr.MakeIP4(1, 2, 3, 4)}
	c := p.Clone()
	c.Data[0] = 99
	c.Tunnel.VNI = 6
	if p.Data[0] != 1 {
		t.Fatal("clone must not share data")
	}
	if p.Tunnel.VNI != 5 {
		t.Fatal("clone must not share tunnel info")
	}
	if c.InPort != 7 {
		t.Fatal("clone must copy metadata")
	}
}

func TestBatch(t *testing.T) {
	b := NewBatch(4)
	if b.Len() != 0 || b.Full() {
		t.Fatal("new batch must be empty")
	}
	for i := 0; i < 4; i++ {
		b.Add(New(nil))
	}
	if !b.Full() || b.Len() != 4 {
		t.Fatal("batch should be full")
	}
	defer func() {
		if recover() == nil {
			t.Error("overflow must panic")
		}
	}()
	b.Add(New(nil))
}

func TestBatchClear(t *testing.T) {
	b := NewBatch(8)
	b.Add(New(nil))
	b.Clear()
	if b.Len() != 0 {
		t.Fatal("clear failed")
	}
	if cap(b.Pkts) != 8 {
		t.Fatal("clear must retain capacity")
	}
}

func TestPoolPreallocated(t *testing.T) {
	pool := NewPool(4, 2048, true)
	if pool.Available() != 4 {
		t.Fatalf("available = %d", pool.Available())
	}
	buf := []byte{0xaa, 0xbb}
	p := pool.Get(buf)
	if pool.Available() != 3 {
		t.Fatal("get must take from the pool")
	}
	if p.Len() != 2 || p.Data[0] != 0xaa {
		t.Fatal("get must carry the data")
	}
	if pool.Allocs != 0 {
		t.Fatal("preallocated get must not heap-allocate")
	}
	p.Release()
	if pool.Available() != 4 {
		t.Fatal("release must return to the pool")
	}
}

func TestPoolDoubleReleaseSafe(t *testing.T) {
	pool := NewPool(2, 64, true)
	p := pool.Get([]byte{1})
	p.Release()
	p.Release()
	if pool.Available() != 2 {
		t.Fatalf("double release corrupted the pool: %d", pool.Available())
	}
}

func TestPoolExhaustionFallsBackToHeap(t *testing.T) {
	pool := NewPool(1, 64, true)
	a := pool.Get([]byte{1})
	b := pool.Get([]byte{2})
	if pool.Allocs != 1 {
		t.Fatalf("allocs = %d, want 1", pool.Allocs)
	}
	b.Release() // heap packet: no-op
	if pool.Available() != 0 {
		t.Fatal("heap packet must not enter the pool")
	}
	a.Release()
	if pool.Available() != 1 {
		t.Fatal("pooled packet must return")
	}
}

func TestPoolNotPreallocated(t *testing.T) {
	pool := NewPool(16, 64, false)
	p := pool.Get([]byte{5})
	if pool.Allocs != 1 {
		t.Fatal("non-preallocated pool must heap-allocate")
	}
	p.Release() // must not panic
}

func TestPoolGetResetsMetadata(t *testing.T) {
	pool := NewPool(1, 64, true)
	p := pool.Get([]byte{1})
	p.InPort = 9
	p.CtState = CtTracked
	p.Release()
	q := pool.Get([]byte{2})
	if q.InPort != 0 || q.CtState != 0 || q.L3Offset != -1 {
		t.Fatalf("reused packet metadata not reset: %+v", q.Metadata)
	}
}

func TestPoolOversizedBuffer(t *testing.T) {
	pool := NewPool(1, 8, true)
	big := make([]byte, 64)
	big[63] = 7
	p := pool.Get(big)
	if p.Len() != 64 || p.Data[63] != 7 {
		t.Fatal("oversized buffer must still be carried")
	}
}

func TestCtStateString(t *testing.T) {
	if s := (CtTracked | CtEstablished).String(); s != "trk,est" {
		t.Fatalf("ct state string = %q", s)
	}
	if s := CtStateFlags(0).String(); s != "-" {
		t.Fatalf("empty ct state string = %q", s)
	}
}

func TestPacketString(t *testing.T) {
	p := New(make([]byte, 60))
	p.InPort = 2
	if p.String() == "" {
		t.Fatal("String must produce something")
	}
}

func TestFramePoolReleasesFrameOnce(t *testing.T) {
	var released []int
	pool := NewFramePool(3, func(i int) { released = append(released, i) })
	buf := []byte{1, 2, 3}
	p := pool.Frame(2, buf)
	if !p.InFrame() || pool.Held() != 1 || &p.Data[0] != &buf[0] {
		t.Fatal("a frame packet must view the frame's bytes and count as held")
	}
	if p.L3Offset != -1 || p.InPort != 0 {
		t.Fatal("frame packet metadata must start fresh")
	}
	p.InPort = 7
	p.Release()
	p.Release()
	if pool.Held() != 0 || len(released) != 1 || released[0] != 2 {
		t.Fatalf("held %d, released %v; want 0 and [2]", pool.Held(), released)
	}
	// The record is reusable once released, with fresh metadata.
	if q := pool.Frame(2, buf); q != p || q.InPort != 0 {
		t.Fatal("re-handing a released frame must reuse its record, reset")
	}
}

func TestFramePoolDoubleHandOutPanics(t *testing.T) {
	pool := NewFramePool(1, func(int) {})
	pool.Frame(0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("handing out a held frame again must panic")
		}
	}()
	pool.Frame(0, nil)
}

func TestDetach(t *testing.T) {
	plain := New([]byte{1})
	if plain.Detach() != plain {
		t.Fatal("a packet that owns its buffer detaches to itself")
	}
	released := 0
	pool := NewFramePool(1, func(int) { released++ })
	buf := []byte{4, 5, 6}
	p := pool.Frame(0, buf)
	p.InPort = 3
	c := p.Detach()
	if c == p || c.InFrame() || c.InPort != 3 || !bytes.Equal(c.Data, buf) {
		t.Fatal("detaching a frame packet must return a copy with its metadata")
	}
	buf[0] = 9
	if c.Data[0] != 4 {
		t.Fatal("the copy must not alias the frame")
	}
	if released != 1 || pool.Held() != 0 {
		t.Fatal("detaching must release the frame")
	}
}
