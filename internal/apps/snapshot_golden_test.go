package apps

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand/v2"
	"testing"

	"briskstream/internal/checkpoint"
	"briskstream/internal/engine"
	"briskstream/internal/tuple"
)

// snapshotGolden pins the snapshot encoding of LR's keyed operators —
// accident_detect and account_balance (keyed stores) and avg_speed (a
// sliding window operator) — byte for byte. The digests were taken from
// the encoding that predates the keyed stores' kept sort order, so any
// change to how keyed state is ordered or framed in a snapshot fails
// here: checkpoints written before such a change must keep restoring.
var snapshotGolden = map[string][2]string{
	// op: {after phase 1, after phase 2}
	"accident_detect": {
		"e0f61994287bbf67c99be79f2152be7370fd2c33e875ef9f1f6838506d451a72",
		"20f89acdc94e1caead30762ff0a77f9e0c18c8de73effc275c9b330d940a4760",
	},
	"account_balance": {
		"08e439f3b9fe0905183432bfa596a71c43a9680383ab32344bc4639ec03aa383",
		"240a32710885ea0bc4e9405c02860dd8585ab6feb56f250a00fc5fa4c25a4020",
	},
	"avg_speed": {
		"6eea9b6c22a4bb5af44277715c9a51831dd89922a0f733cee881b0446a7cc93c",
		"ad6a4763c272aa3a3e9e9675bbca17711c089c5aea90ab224d3bbacbea595f46",
	},
}

// lrGoldenRecords generates n position reports with a fixed seed:
// vehicles from [vLo, vHi), speeds that are often 0 at a repeated
// position (so stop counters move), 16 segments and rising event time.
func lrGoldenRecords(r *rand.Rand, n int, vLo, vHi, et int64) []*tuple.Tuple {
	out := make([]*tuple.Tuple, n)
	for i := range out {
		t := &tuple.Tuple{}
		v := vLo + r.Int64N(vHi-vLo)
		speed := int64(0)
		if r.IntN(3) > 0 {
			speed = 40 + r.Int64N(60)
		}
		seg := v % 16
		t.AppendInt(0) // type: position report
		t.AppendInt(v)
		t.AppendInt(speed)
		t.AppendInt(0) // xway
		t.AppendInt(0) // lane
		t.AppendInt(seg)
		t.AppendInt(v % 5) // position
		t.Event = et + int64(i)
		out[i] = t
	}
	return out
}

func snapshotOf(t *testing.T, op engine.Operator) []byte {
	t.Helper()
	enc := checkpoint.NewEncoder()
	if err := op.(checkpoint.Snapshotter).Snapshot(enc); err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(enc.Bytes())
}

func restoreInto(t *testing.T, op engine.Operator, b []byte) {
	t.Helper()
	dec := checkpoint.NewDecoder(b)
	if err := op.(checkpoint.Snapshotter).Restore(dec); err != nil {
		t.Fatal(err)
	}
	if dec.Remaining() != 0 {
		t.Fatalf("restore left %d bytes unread", dec.Remaining())
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestLRSnapshotBytesGolden feeds a seeded stream into LR's keyed
// operators and checks their snapshots against the pinned digests:
// after a first batch of keys, again unchanged (the kept-order pass),
// after more keys arrive (new keys merged into the kept order), and
// after restoring each snapshot into a fresh operator and into the
// used one.
func TestLRSnapshotBytesGolden(t *testing.T) {
	app := LinearRoad()
	c := newDrainCollector()
	r := rand.New(rand.NewPCG(14, 2026))
	phase1 := lrGoldenRecords(r, 3000, 0, 2000, 0)
	phase2 := lrGoldenRecords(r, 1000, 1500, 2600, 3000)
	for name, want := range snapshotGolden {
		t.Run(name, func(t *testing.T) {
			op := app.Operators[name]()
			feed := func(recs []*tuple.Tuple) {
				for _, in := range recs {
					if err := op.Process(c, in); err != nil {
						t.Fatal(err)
					}
				}
			}
			feed(phase1)
			a := snapshotOf(t, op)
			if got := digest(a); got != want[0] {
				t.Errorf("phase 1 snapshot digest %s, want %s (%d bytes)", got, want[0], len(a))
			}
			if again := snapshotOf(t, op); !bytes.Equal(again, a) {
				t.Error("re-snapshot of unchanged state differs")
			}
			feed(phase2)
			b := snapshotOf(t, op)
			if got := digest(b); got != want[1] {
				t.Errorf("phase 2 snapshot digest %s, want %s (%d bytes)", got, want[1], len(b))
			}
			fresh := app.Operators[name]()
			restoreInto(t, fresh, b)
			if got := snapshotOf(t, fresh); !bytes.Equal(got, b) {
				t.Error("snapshot after restore into a fresh operator differs")
			}
			restoreInto(t, op, a)
			if got := snapshotOf(t, op); !bytes.Equal(got, a) {
				t.Error("snapshot after restoring the phase 1 state differs")
			}
		})
	}
}
