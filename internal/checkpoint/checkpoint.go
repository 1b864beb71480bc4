// Package checkpoint implements BriskStream's fault-tolerance substrate:
// aligned-barrier checkpoints in the Chandy–Lamport style, adapted to the
// shared-memory engine's per-edge SPSC rings. The engine injects a
// barrier punctuation at every source, each task aligns the barriers of
// its producer edges (buffering input from edges that already delivered
// the barrier), snapshots its operator state on its own execution
// goroutine, and acknowledges to the Coordinator; a checkpoint is
// complete only once every task has acknowledged, at which point the
// Coordinator persists it through a pluggable Store (in-memory or
// file-backed). On failure the engine restores every task from the
// latest completed checkpoint and seeks its sources back to the recorded
// offsets (engine.ReplayableSpout), so replay reproduces the exact
// post-checkpoint stream.
//
// This package owns the pieces that are independent of the engine's
// execution machinery:
//
//   - Encoder/Decoder: a deterministic binary encoding for snapshot
//     payloads. Determinism is a contract, not an accident — the same
//     logical state must serialize to the same bytes so snapshot
//     round-trips are testable bit-for-bit, which is what keeps the
//     subsystem honest about missed state. Keyed state is therefore
//     always encoded in sorted key order (state.Map.RangeSorted).
//   - Snapshotter: the interface operators (and spouts with state beyond
//     their replay offset) implement to participate in checkpoints.
//   - Checkpoint/Store: the persisted artifact and its backends.
//   - Coordinator: in-flight checkpoint tracking and completion.
//
// Snapshots are taken per task on the task's own goroutine between
// tuples, rather than in a stop-the-world freeze — the alignment
// protocol is what makes the union of these local snapshots a
// consistent global cut.
//
// What a snapshot costs: one O(n) encode of the task's state, plus a
// sort only when the key set changed. state.Map keeps its sorted order
// between RangeSorted passes, so keys created since the last snapshot
// are sorted alone and merged in, and only a delete or Clear costs a
// full sort at the next snapshot; the engine starts each task's Encoder
// at the size of its previous snapshot. The pause is cheap but not
// local: a downstream task that aligns the snapshotting task's barrier
// against other inputs parks those inputs until the snapshot is done
// (in LR, toll_notify parks the dispatcher's position reports behind
// accident_detect's 50k-vehicle snapshot), so a task's snapshot time
// adds to the latency of everything that waits on that alignment.
package checkpoint

import (
	"cmp"
	"slices"

	"briskstream/internal/state"
)

// Snapshotter is implemented by operators (and spouts) whose state must
// survive failure. Snapshot serializes the full operator state into enc;
// Restore rebuilds it from a Snapshot-produced payload, replacing any
// current state. Both run on the owning task's execution goroutine, so
// implementations may touch operator state without synchronization, but
// must not emit tuples.
//
// Snapshot encodings must be deterministic: encode keyed state in sorted
// key order (state.Map.RangeSorted), never in Go map order.
type Snapshotter interface {
	Snapshot(enc *Encoder) error
	Restore(dec *Decoder) error
}

// Resharder is implemented by Snapshotters whose state is keyed and can
// be re-partitioned across a different replica count. Reshard receives
// the Snapshot payloads of every old replica of the operator and
// returns exactly n payloads, one per new replica, such that every
// (key, value) pair of the input appears in exactly one output shard —
// the shard of its new owner, hash(key) % n, matching the engine's
// fields routing. Each output payload must be a valid Restore input and
// deterministic (encode keys in sorted order). Elastic rescaling
// requires every stateful operator being rescaled to implement this.
type Resharder interface {
	Reshard(old [][]byte, n int) ([][]byte, error)
}

// Validator is implemented by Snapshotters whose ability to snapshot
// depends on configuration (the window operators need Save/Load
// codecs). The engine calls ValidateSnapshot at construction when
// checkpointing is enabled, so a misconfigured operator fails the
// build instead of aborting the run at the first barrier.
type Validator interface {
	ValidateSnapshot() error
}

// SaveOrdered encodes a state.Map with naturally ordered keys
// deterministically: length first, then every (key, value) pair in
// ascending key order.
func SaveOrdered[K cmp.Ordered, V any](enc *Encoder, m *state.Map[K, V], key func(*Encoder, K), val func(*Encoder, *V)) {
	enc.Len(m.Len())
	m.RangeSorted(func(a, b K) int { return cmp.Compare(a, b) }, func(k K, e *V) bool {
		key(enc, k)
		val(enc, e)
		return true
	})
}

// LoadOrdered decodes a SaveOrdered encoding into m, replacing its
// contents. val receives a recycled entry and must fully initialize it.
func LoadOrdered[K cmp.Ordered, V any](dec *Decoder, m *state.Map[K, V], key func(*Decoder) K, val func(*Decoder, *V)) error {
	m.Clear()
	n := dec.Len()
	for i := 0; i < n && dec.Err() == nil; i++ {
		k := key(dec)
		e, _ := m.GetOrCreate(k)
		val(dec, e)
	}
	return dec.Err()
}

// SaveMapOrdered is SaveOrdered for plain Go maps — the common shape of
// hand-rolled operator state (per-entity cursors, received multisets).
func SaveMapOrdered[K cmp.Ordered, V any](enc *Encoder, m map[K]V, key func(*Encoder, K), val func(*Encoder, V)) {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	enc.Len(len(keys))
	for _, k := range keys {
		key(enc, k)
		val(enc, m[k])
	}
}

// LoadMapOrdered decodes a SaveMapOrdered encoding into m, replacing
// its contents.
func LoadMapOrdered[K cmp.Ordered, V any](dec *Decoder, m map[K]V, key func(*Decoder) K, val func(*Decoder) V) error {
	clear(m)
	n := dec.Len()
	for i := 0; i < n && dec.Err() == nil; i++ {
		k := key(dec)
		m[k] = val(dec)
	}
	return dec.Err()
}
