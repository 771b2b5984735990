package core

import (
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/perf"
)

// processBatch runs one received batch through the fast path. With batch
// dedup disabled (the default) it is exactly the historical per-packet
// loop; enabled, same-flow packets within the batch are classified once
// (dp_netdev_input's per-flow batching). Lifecycle tracing records
// per-packet resolution, so an armed tracer falls back to the per-packet
// path.
func (d *Datapath) processBatch(m *PMD, pkts []*packet.Packet) {
	if !d.Opts.BatchDedup || len(pkts) <= 1 || m.Perf.Tracer() != nil {
		for _, p := range pkts {
			d.processOne(m, p, 0)
		}
		return
	}
	d.classifyBatch(m, pkts)
}

// classifyBatch is the batch-aware classification pipeline: per-packet
// admission work (metadata, checksum validation, key extraction) exactly as
// the per-packet path charges it, then one cache-hierarchy lookup per
// distinct flow key in the batch. Follower packets of a group charge only
// the flow-batch append cost and count as hits at the level that resolved
// their leader. All scratch state lives on the PMD, so the steady state
// allocates nothing.
func (d *Datapath) classifyBatch(m *PMD, pkts []*packet.Packet) {
	n := len(pkts)

	keys := m.batchKeys[:0]
	for _, p := range pkts {
		d.Processed++
		m.Perf.Packets++
		m.charge(perf.StageRx, costmodel.PacketMetadataInit)
		if !d.Opts.MetadataPrealloc {
			m.charge(perf.StageRx, costmodel.PacketMetadataMmap)
		}
		if p.Offloads&(packet.CsumVerified|packet.CsumPartial) == 0 {
			if !d.Opts.AssumeCsumOffload {
				m.charge(perf.StageRx, costmodel.ChecksumCost(len(p.Data)))
			}
			p.Offloads |= packet.CsumVerified
		}
		keys = append(keys, flow.Extract(p))
		m.charge(perf.StageRx, costmodel.ParseFlowKey)
	}
	m.batchKeys = keys

	// Group same-key packets. Batches are at most BatchSize packets and
	// typically carry few distinct flows, so the linear scan over group
	// leaders beats any map (and allocates nothing).
	leaders := m.batchLeaders[:0]
	groupOf := m.batchGroupOf[:0]
	for i := 0; i < n; i++ {
		g := -1
		for j, l := range leaders {
			if keys[l] == keys[i] {
				g = j
				break
			}
		}
		if g < 0 {
			leaders = append(leaders, i)
			g = len(leaders) - 1
		}
		groupOf = append(groupOf, g)
	}
	m.batchLeaders = leaders
	m.batchGroupOf = groupOf

	for g, l := range leaders {
		e := d.lookupHierarchy(m, keys[l])
		if e == nil {
			// The whole group missed every cache: each packet takes the
			// per-packet slow path individually (upcall-queue admission
			// is per packet, and the classifier dedups the translations).
			// Admission accounting already happened above, so count=false.
			// The leader's lookup probes are charged twice this way — a
			// few tens of ns against a 60 us upcall, only in this
			// opt-in mode.
			for i := l; i < n; i++ {
				if groupOf[i] == g {
					d.processCounted(m, pkts[i], 0, false)
				}
			}
			continue
		}
		actions := ofproto.ActionsOf(e.Actions)
		for i := l; i < n; i++ {
			if groupOf[i] != g {
				continue
			}
			if i != l {
				// Follower: append to the leader's flow batch and count
				// the hit at the level that resolved the leader.
				m.charge(perf.StageRx, costmodel.BatchedFlowUpdate)
				d.countFollowerHit(m)
			}
			if len(actions) == 0 {
				d.Drops++
				pkts[i].Release()
				continue
			}
			d.execute(m, pkts[i], actions, 0)
		}
	}
}

// countFollowerHit attributes a follower packet to the same resolution
// level as its group leader, keeping per-level hit counters meaning
// "packets resolved at this level" exactly as in the per-packet path.
func (d *Datapath) countFollowerHit(m *PMD) {
	switch m.lastLevel {
	case perf.ResultEMC:
		d.EMCHits++
		m.Perf.EMCHits++
	case perf.ResultSMC:
		d.SMCHits++
		m.Perf.SMCHits++
	case perf.ResultMegaflow:
		d.MegaflowHits++
		m.Perf.MegaflowHits++
	}
}
