package checkpoint

import (
	"cmp"
	"math/rand/v2"
	"testing"

	"briskstream/internal/state"
)

// Layer benchmarks for checkpoint encoding and persistence, sized like
// LR's largest snapshot: accident_detect's per-vehicle stop state over
// 50k vehicles (two fixed-width fields per key, about 1.2 MB encoded).

const benchKeys = 50_000

type benchVehicle struct{ pos, stopped int64 }

var benchSink []byte

// benchKey scatters key values so sorting does real work.
func benchKey(i int) int64 { return int64(uint64(i) * 0x9E3779B97F4A7C15 >> 20) }

func benchVehicles(n int) *state.Map[int64, benchVehicle] {
	m := state.NewMap[int64, benchVehicle]()
	for i := 0; i < n; i++ {
		v, _ := m.GetOrCreate(benchKey(i))
		*v = benchVehicle{pos: int64(i % 5), stopped: int64(i % 4)}
	}
	return m
}

func saveVehicles(enc *Encoder, m *state.Map[int64, benchVehicle]) {
	SaveOrdered(enc, m,
		func(e *Encoder, k int64) { e.Int64(k) },
		func(e *Encoder, v *benchVehicle) {
			e.Int64(v.pos)
			e.Int64(v.stopped)
		})
}

// BenchmarkSnapshotKeyed times one SaveOrdered of a 50k-entry keyed
// store into an encoder sized by the previous snapshot plus an eighth,
// as the engine sizes it at every barrier:
//   - steady: no key created or deleted since the previous snapshot;
//   - new1pct: 500 keys (1%) created since the previous snapshot;
//   - cleared: the store was cleared and refilled since the previous
//     snapshot, so the pass sorts every key.
func BenchmarkSnapshotKeyed(b *testing.B) {
	b.Run("steady", func(b *testing.B) {
		m := benchVehicles(benchKeys)
		warm := NewEncoder()
		saveVehicles(warm, m)
		size := len(warm.Bytes())
		b.SetBytes(int64(size))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enc := NewEncoderSize(size + size/8)
			saveVehicles(enc, m)
			benchSink = enc.Bytes()
		}
	})
	b.Run("new1pct", func(b *testing.B) {
		m := benchVehicles(benchKeys)
		r := rand.New(rand.NewPCG(1, 2))
		var added []int64
		warm := NewEncoder()
		saveVehicles(warm, m)
		size := len(warm.Bytes())
		b.SetBytes(int64(size))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// Back to the 50k base keys, with their order kept by one
			// pass, then 1% new keys.
			for _, k := range added {
				m.Delete(k)
			}
			added = added[:0]
			m.RangeSorted(cmp.Compare[int64], func(int64, *benchVehicle) bool { return false })
			for len(added) < benchKeys/100 {
				k := -1 - r.Int64N(1<<40) // negative: never a base key
				if v, created := m.GetOrCreate(k); created {
					*v = benchVehicle{}
					added = append(added, k)
				}
			}
			b.StartTimer()
			enc := NewEncoderSize(size + size/8)
			saveVehicles(enc, m)
			benchSink = enc.Bytes()
		}
	})
	b.Run("cleared", func(b *testing.B) {
		m := benchVehicles(benchKeys)
		warm := NewEncoder()
		saveVehicles(warm, m)
		size := len(warm.Bytes())
		b.SetBytes(int64(size))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m.Clear()
			for j := 0; j < benchKeys; j++ {
				v, _ := m.GetOrCreate(benchKey(j))
				*v = benchVehicle{pos: int64(j % 5)}
			}
			b.StartTimer()
			enc := NewEncoderSize(size + size/8)
			saveVehicles(enc, m)
			benchSink = enc.Bytes()
		}
	})
}

// BenchmarkFileStoreSave times persisting a 1.2 MB checkpoint (one
// large keyed-state snapshot among a dozen small ones) to a FileStore:
// framing, the temp-file write and the rename. The previous checkpoint
// is pruned between iterations, outside the timed region.
func BenchmarkFileStoreSave(b *testing.B) {
	fs, err := NewFileStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewPCG(3, 4))
	big := make([]byte, 1_200_000)
	for i := range big {
		big[i] = byte(r.Uint32())
	}
	tasks := map[string][]byte{"accident_detect#0": big}
	for _, l := range []string{"spout#0", "parser#0", "dispatcher#0", "avg_speed#0", "las_avg_speed#0", "count_vehicle#0",
		"toll_notify#0", "accident_notify#0", "daily_expen#0", "account_balance#0", "sink#0"} {
		tasks[l] = big[:2048]
	}
	total := 0
	for _, p := range tasks {
		total += len(p)
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i + 1)
		if err := fs.Save(&Checkpoint{ID: id, Tasks: tasks}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := fs.Prune(id); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
