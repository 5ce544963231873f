package core

import (
	"rbay/internal/attr"
	"rbay/internal/ingest"
)

// The churn-ingestion apply path (docs/INGEST.md): producers — monitor
// feeds, gateway bulk posts — enqueue validated updates from any
// goroutine; the queue wakes the node, and applyIngest drains one
// coalesced batch per event-context turn. Each batch pays one WAL frame
// (storeSetBatch) and one view re-evaluation pass
// (viewsAttrChangedBatch) however many keys it carries, instead of the
// per-Set frame + view pass the synchronous path pays. Producers are
// acked once that frame is durable (AfterDurable); the loop itself moves
// on to the next batch meanwhile, so batches drained back to back share
// an fsync.

// IngestEnqueue validates and enqueues one attribute update on the
// node's churn-ingestion queue. Unlike the rest of the Node surface it
// is safe to call from ANY goroutine — the queue marshals the apply onto
// the event context itself. ack, if non-nil, fires exactly once (on the
// event context): nil when the update is applied and durable, or the
// validation, quarantine or store error. The returned error reports only
// synchronous validation rejection.
func (n *Node) IngestEnqueue(name string, value any, source string, ack func(error)) error {
	return n.ing.Enqueue(name, value, source, ack)
}

// Ingest exposes the node's ingestion queue (stats, error queue).
// Reading stats is safe from any goroutine.
func (n *Node) Ingest() *ingest.Queue { return n.ing }

// applyIngest drains and applies one batch on the node's event context,
// re-arming itself while updates remain so a sustained burst never
// monopolizes the event loop.
func (n *Node) applyIngest() {
	applies, raw := n.ing.DrainBatch()
	if raw == 0 {
		return
	}
	start := n.Now()
	entries := make([]attr.BatchEntry, 0, len(applies))
	live := applies[:0]
	for _, a := range applies {
		// A quarantined attribute's handlers are disabled because its
		// admin script keeps failing; parking its updates on the error
		// queue keeps a poisoned policy from silently absorbing writes.
		if att, ok := n.am.Lookup(a.Name); ok && att.Quarantined() {
			n.ing.Nack(a, "attribute quarantined")
			continue
		}
		entries = append(entries, attr.BatchEntry{Name: a.Name, Value: a.Value})
		live = append(live, a)
	}
	changed := n.am.ApplyBatch(entries)
	if len(changed) > 0 {
		n.storeSetBatch(changed)
		names := make([]string, len(changed))
		for i, e := range changed {
			names[i] = e.Name
		}
		n.viewsAttrChangedBatch(names)
	}
	for _, a := range live {
		n.metrics.Observe("rbay_ingest_staleness_seconds", start.Sub(a.At))
	}
	n.AfterDurable(func(err error) {
		for _, a := range live {
			if err != nil {
				n.ing.Nack(a, err.Error())
			} else {
				a.Ack()
			}
		}
	})
	n.metrics.Observe("rbay_ingest_apply_seconds", n.Now().Sub(start))
	if n.ing.Depth() > 0 {
		n.p.After(0, n.applyIngestFn)
	}
}
