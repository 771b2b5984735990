package conntrack

import (
	"reflect"
	"testing"

	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

// TestWheelExpiresIdleWithoutSweep: an idle connection is removed by its
// timer, with no lookup of its tuple.
func TestWheelExpiresIdleWithoutSweep(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	ct.Timeouts.SynSent = 10 * sim.Millisecond

	ct.Process(tcpPkt(ipA, ipB, 1000, 80, hdr.TCPSyn), 1, true, NAT{})
	if ct.Len() != 1 {
		t.Fatalf("len = %d, want 1", ct.Len())
	}
	eng.RunUntil(20 * sim.Millisecond)
	if ct.Len() != 0 || ct.Expired != 1 {
		t.Fatalf("len=%d expired=%d after timeout, want 0/1", ct.Len(), ct.Expired)
	}
}

// TestWheelLazyRearmKeepsActive: traffic refreshes only the expiry stamp;
// when the stale timer fires it must re-arm for the refreshed deadline
// instead of killing the active connection.
func TestWheelLazyRearmKeepsActive(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	ct.Timeouts = Timeouts{SynSent: 50 * sim.Millisecond, Established: 50 * sim.Millisecond,
		UDP: 50 * sim.Millisecond, Fin: 50 * sim.Millisecond}
	handshake(ct, 1, 1000, 80)

	// Refresh at 20ms and 40ms; the original 50ms deadline passes with
	// the connection active.
	for _, at := range []sim.Time{20 * sim.Millisecond, 40 * sim.Millisecond} {
		eng.ScheduleAt(at, func() {
			ct.Process(tcpPkt(ipA, ipB, 1000, 80, hdr.TCPAck), 1, false, NAT{})
		})
	}
	eng.RunUntil(70 * sim.Millisecond)
	if ct.Len() != 1 {
		t.Fatal("active connection expired despite refreshes")
	}
	// Idle from 40ms: gone once 40ms + 50ms passes.
	eng.RunUntil(120 * sim.Millisecond)
	if ct.Len() != 0 {
		t.Fatal("idle connection survived its refreshed deadline")
	}
}

// TestDeadlineShortenedRearms: a RST moves an established connection's
// deadline from Established to Fin. The timer armed for the later deadline
// must be re-armed, so the connection (and its zone slot and NAT port) is
// reclaimed at the Fin deadline, not the stale Established one.
func TestDeadlineShortenedRearms(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	handshake(ct, 1, 1000, 80)

	eng.ScheduleAt(sim.Second, func() {
		ct.Process(tcpPkt(ipA, ipB, 1000, 80, hdr.TCPRst), 1, false, NAT{})
	})
	eng.RunUntil(sim.Second + 2*ct.Timeouts.Fin)
	if ct.Len() != 0 || ct.Expired != 1 {
		t.Fatalf("len=%d expired=%d after RST + 2xFin, want 0/1", ct.Len(), ct.Expired)
	}
}

// TestFindIsPure: Find on an expired connection whose timer has not fired
// yet reads as not found and leaves the table exactly as it was; the timer
// still reclaims the connection.
func TestFindIsPure(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	tu, _ := TupleOf(udpPkt(ipA, ipB, 5000, 53))
	// Scheduled before the commit, so at the deadline this event runs
	// ahead of the connection's timer event.
	eng.ScheduleAt(ct.Timeouts.UDP, func() {
		lookups := ct.ShardLookups(nil)
		if _, ok := ct.Find(1, tu); ok {
			t.Error("Find returned a connection at its deadline")
		}
		if ct.Len() != 1 || ct.Expired != 0 {
			t.Errorf("Find changed state: len=%d expired=%d, want 1/0", ct.Len(), ct.Expired)
		}
		if got := ct.ShardLookups(nil); !reflect.DeepEqual(got, lookups) {
			t.Errorf("Find counted shard lookups: %v -> %v", lookups, got)
		}
	})
	ct.Process(udpPkt(ipA, ipB, 5000, 53), 1, true, NAT{})
	eng.RunUntil(ct.Timeouts.UDP)
	if ct.Len() != 0 || ct.Expired != 1 {
		t.Fatalf("len=%d expired=%d after the timer, want 0/1", ct.Len(), ct.Expired)
	}
}
