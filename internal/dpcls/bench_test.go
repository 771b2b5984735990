package dpcls

import (
	"testing"

	"ovsxdp/internal/flow"
	"ovsxdp/internal/packet/hdr"
)

func benchKey(i int) flow.Key {
	f := flow.Fields{
		InPort:  1,
		EthType: hdr.EtherTypeIPv4,
		IP4Src:  hdr.IP4(0x0a000000 + uint32(i)),
		IP4Dst:  hdr.MakeIP4(10, 1, 0, 2),
		IPProto: hdr.IPProtoUDP,
		TPSrc:   uint16(i), TPDst: 80,
	}
	return f.Pack()
}

// benchMasks builds n distinct masks (increasing IPv4 dst prefix lengths),
// so each installs its own subtable.
func benchMasks(n int) []flow.Mask {
	masks := make([]flow.Mask, n)
	for i := range masks {
		masks[i] = flow.NewMaskBuilder().InPort().EthType().IP4Dst(8 + i).Build()
	}
	return masks
}

// BenchmarkDpclsLookup measures a tuple-space lookup across 8 subtables,
// the wall-clock analog of the DpclsLookupPerSubtable virtual cost.
func BenchmarkDpclsLookup(b *testing.B) {
	c := New(0)
	masks := benchMasks(8)
	keys := make([]flow.Key, 1024)
	for i := range keys {
		keys[i] = benchKey(i)
		c.Insert(keys[i], masks[i%len(masks)], "actions")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(keys[i%len(keys)])
	}
}

// BenchmarkDpclsInsert measures installing megaflows under many distinct
// masks — the path the byMask index keeps O(1) per insert.
func BenchmarkDpclsInsert(b *testing.B) {
	masks := benchMasks(24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New(0)
		for j, m := range masks {
			c.Insert(benchKey(j), m, "actions")
		}
	}
}

// BenchmarkDpclsLookup100kTwoMasks measures lookups in a churn-sized table:
// 100,000 megaflows split over two masks, so half the lookups miss the
// first subtable probed before hitting the second. Each subtable holds
// 50,000 entries in 131,072 slots, 38% full, just past a doubling.
func BenchmarkDpclsLookup100kTwoMasks(b *testing.B) {
	benchLookupTwoMasks(b, 100_000)
}

// BenchmarkDpclsLookup96kTwoMasks is the same lookup just below a doubling:
// 48,000 entries per mask fill 65,536 slots 73% full, near the 3/4 bound,
// where a missed probe walks the longest runs.
func BenchmarkDpclsLookup96kTwoMasks(b *testing.B) {
	benchLookupTwoMasks(b, 96_000)
}

func benchLookupTwoMasks(b *testing.B, n int) {
	c := New(0)
	masks := [2]flow.Mask{
		flow.NewMaskBuilder().InPort().EthType().IP4Src(32).IP4Dst(32).Build(),
		flow.NewMaskBuilder().InPort().EthType().IP4Src(32).TPSrc().Build(),
	}
	keys := make([]flow.Key, n)
	for i := range keys {
		keys[i] = benchKey(i)
		c.Insert(keys[i], masks[i%2], "actions")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(keys[i%len(keys)])
	}
}
