package dpcls

import (
	"testing"

	"ovsxdp/internal/flow"
	"ovsxdp/internal/packet/hdr"
)

// fuzzMasks are the masks FuzzClassifier installs under: two that overlap
// (a port and a /24 source), and an exact one on the same fields.
var fuzzMasks = [...]flow.Mask{
	flow.NewMaskBuilder().EthType().TPDst().Build(),
	flow.NewMaskBuilder().EthType().IP4Src(24).Build(),
	flow.NewMaskBuilder().EthType().IP4Src(32).TPDst().Build(),
}

// fuzzKey spreads one byte over a small key space: 64 sources in two /24s
// and four destination ports, so masked keys collide often.
func fuzzKey(b byte) flow.Key {
	return keyFor(hdr.MakeIP4(10, 0, b>>5&1, b&0x1f), 80+uint16(b>>6))
}

// fuzzFlow is one megaflow of the reference model.
type fuzzFlow struct {
	e       *Entry
	mask    flow.Mask
	masked  flow.Key
	actions int
}

// FuzzClassifier decodes bytes into Insert (new or replacing), Remove,
// Flush and Lookup operations over a few masks, and checks the classifier
// against a plain list of live megaflows after every step. Each operation
// is two bytes: the first picks the operation (low nibble) and the mask
// (high nibble), the second the key or the entry. The first byte of the
// input seeds the hash basis.
func FuzzClassifier(f *testing.F) {
	f.Add([]byte{0, 0x00, 0x01, 0x10, 0x01, 0x11, 0x08, 0x00, 0x0c, 0x01})
	f.Add([]byte{7, 0x00, 0x05, 0x00, 0x05, 0x0f, 0x00, 0x0c, 0x45})
	f.Fuzz(func(t *testing.T, data []byte) {
		var basis uint32
		if len(data) > 0 {
			basis, data = uint32(data[0])*0x01000193, data[1:]
		}
		c := New(basis)
		var live []fuzzFlow
		var dead []*Entry
		for step := 0; step+1 < len(data); step += 2 {
			op, arg := data[step], data[step+1]
			switch code := op & 0xf; {
			case code < 8: // insert
				mask := fuzzMasks[int(op>>4)%len(fuzzMasks)]
				key := fuzzKey(arg)
				masked := key.Apply(mask)
				e := c.Insert(key, mask, step)
				found := false
				for i := range live {
					if live[i].mask == mask && live[i].masked == masked {
						if live[i].e != e {
							t.Fatalf("step %d: replacement returned a new entry", step)
						}
						live[i].actions, found = step, true
					}
				}
				if !found {
					live = append(live, fuzzFlow{e: e, mask: mask, masked: masked, actions: step})
				}
			case code < 12: // remove a live entry, or retry a removed one
				if arg&0x80 != 0 && len(dead) > 0 {
					if c.Remove(dead[int(arg)%len(dead)]) {
						t.Fatalf("step %d: removing a dead entry succeeded", step)
					}
					continue
				}
				if len(live) == 0 {
					continue
				}
				i := int(arg) % len(live)
				if !c.Remove(live[i].e) {
					t.Fatalf("step %d: removing a live entry failed", step)
				}
				dead = append(dead, live[i].e)
				live = append(live[:i], live[i+1:]...)
			case code < 15: // lookup
				key := fuzzKey(arg)
				e, _ := c.Lookup(key)
				var want *Entry
				for _, l := range live {
					if key.Apply(l.mask) == l.masked {
						want = l.e
						if l.e == e {
							break
						}
					}
				}
				switch {
				case want == nil && e != nil:
					t.Fatalf("step %d: lookup returned %v, the model has no match", step, e)
				case want != nil && e == nil:
					t.Fatalf("step %d: lookup missed, the model matches %v", step, want)
				case e != nil && (e.Dead() || key.Apply(e.Mask) != e.MaskedKey):
					t.Fatalf("step %d: lookup returned %v, which is dead or does not match", step, e)
				}
			default: // flush
				c.Flush()
				for _, l := range live {
					dead = append(dead, l.e)
				}
				live = nil
			}
			checkAgainstModel(t, step, c, live, dead)
		}
	})
}

// checkAgainstModel compares the classifier's counts, dump and dead marks
// with the model, and checks that every slotted entry is reachable from
// its home slot without crossing an empty one.
func checkAgainstModel(t *testing.T, step int, c *Classifier, live []fuzzFlow, dead []*Entry) {
	t.Helper()
	if c.Len() != len(live) {
		t.Fatalf("step %d: Len %d, model has %d", step, c.Len(), len(live))
	}
	masks := map[flow.Mask]bool{}
	want := map[*Entry]int{}
	for _, l := range live {
		masks[l.mask] = true
		want[l.e] = l.actions
	}
	if c.Subtables() != len(masks) {
		t.Fatalf("step %d: Subtables %d, model has %d masks", step, c.Subtables(), len(masks))
	}
	entries := c.Entries()
	if len(entries) != len(live) {
		t.Fatalf("step %d: Entries lists %d, model has %d", step, len(entries), len(live))
	}
	for _, e := range entries {
		actions, ok := want[e]
		if !ok || e.Dead() || e.Actions != actions {
			t.Fatalf("step %d: Entries lists %v (actions %v), model: live %v actions %v",
				step, e, e.Actions, ok, actions)
		}
		delete(want, e)
	}
	for _, e := range dead {
		if !e.Dead() {
			t.Fatalf("step %d: removed entry %v is not dead", step, e)
		}
	}
	for _, st := range c.subtables {
		m := uint32(len(st.slots) - 1)
		if len(st.slots) < minSlots || len(st.slots)&int(m) != 0 || st.n*4 > len(st.slots)*3 {
			t.Fatalf("step %d: %d entries in %d slots", step, st.n, len(st.slots))
		}
		for i, e := range st.slots {
			if e == nil {
				continue
			}
			for j := e.hash & m; j != uint32(i); j = (j + 1) & m {
				if st.slots[j] == nil {
					t.Fatalf("step %d: entry in slot %d is cut off from its home %d by empty slot %d",
						step, i, e.hash&m, j)
				}
			}
		}
	}
}
