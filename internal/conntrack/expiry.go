package conntrack

// Timer-wheel expiry, the only way the tracker reclaims a connection on its
// own. Every connection carries a rearmable sim.Timer on the engine's
// slab-backed wheel:
//
//   - install arms the timer at the connection's deadline;
//   - the hot path only writes c.expires when the deadline moves later (no
//     wheel traffic per packet on established connections);
//   - a deadline that moves earlier than the armed one (a RST or FIN on an
//     established connection) re-arms the timer at once;
//   - when the timer fires, a refreshed deadline just re-arms it (lazy
//     re-arm, the mintmr discipline), an elapsed one removes the record.
//
// Expiry work scales with expirations, not table size, and a
// million-connection table costs one pending timer record per connection —
// no scans. The armed deadline never exceeds c.expires, so an expired
// connection leaves Len, the zone counts and its NAT port when its deadline
// passes, whether or not its tuple is seen again.

// EnableWheelExpiry is a no-op: every table expires on the timer wheel.
//
// Deprecated: wheel expiry is always on; delete the call.
func (t *Table) EnableWheelExpiry(bool) {}

// armTimer schedules the connection's expiry timer at its deadline,
// creating the timer (and its closure) at most once per record — recycled
// records keep their timer, so steady-state churn allocates nothing.
func (t *Table) armTimer(c *Conn) {
	if c.timer == nil {
		cc := c
		c.timer = t.eng.NewTimer(func() { t.timerFired(cc) })
	}
	c.timer.ScheduleAt(c.expires)
}

// deadlineShortened re-arms the timer when the state machine moved the
// deadline earlier than the armed one; lazy re-arm only catches deadlines
// that move later.
func (t *Table) deadlineShortened(c *Conn) {
	if at, ok := c.timer.At(); ok && c.expires < at {
		c.timer.ScheduleAt(c.expires)
	}
}

// timerFired handles a wheel expiry. The record is necessarily live:
// removal stops the timer and recycling keeps it stopped, so a fired timer
// always refers to the connection it was armed for.
func (t *Table) timerFired(c *Conn) {
	if t.eng.Now() < c.expires {
		// The deadline moved while the timer was pending (the hot path
		// refreshed c.expires): re-arm at the new deadline.
		c.timer.ScheduleAt(c.expires)
		return
	}
	t.removeConn(c)
	t.Expired++
}
