package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"mbbp/internal/metrics"
	"mbbp/internal/trace"
)

// cancelAtBlock is an observer that cancels the walk's context once it
// has seen block k, remembering how many instructions the first k
// blocks held.
type cancelAtBlock struct {
	k      uint64
	cancel context.CancelFunc
	instrs uint64 // instructions in blocks 1..k
}

func (c *cancelAtBlock) Observe(ev Event) {
	if ev.Block > c.k {
		return
	}
	c.instrs += uint64(ev.Len)
	if ev.Block == c.k {
		c.cancel()
	}
}

// TestCancelMidWalk: cancelling a bound cursor's context while the walk
// is running stops it within trace.PollStride instructions plus one
// block of the cancelling block — for a lone engine and for 8- and
// 33-lane sets, cancelled from the first lane or the last, whose lanes
// all stop at the same block. A lane set walks a tile of blocks per
// lane, so the first lane cancels before the others have consumed the
// tile and the last lane after.
func TestCancelMidWalk(t *testing.T) {
	tr := randomTrace(7, 400_000)
	const k = 10_000
	for _, lanes := range []int{1, 8, 33} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			for _, from := range []int{0, lanes - 1}[:min(lanes, 2)] {
				t.Run(fmt.Sprintf("from=%d", from), func(t *testing.T) {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					cur := tr.WithContext(ctx)
					obs := &cancelAtBlock{k: k, cancel: cancel}
					cfgs := make([]Config, lanes)
					for i := range cfgs {
						cfgs[i] = DefaultConfig()
						cfgs[i].HistoryBits = 6 + i%8
					}
					var rs []metrics.Result
					if lanes == 1 {
						e, err := New(cfgs[0])
						if err != nil {
							t.Fatal(err)
						}
						e.SetObserver(obs)
						rs = []metrics.Result{e.Run(cur)}
					} else {
						ls, err := NewLanes(cfgs)
						if err != nil {
							t.Fatal(err)
						}
						ls.Lanes()[from].SetObserver(obs)
						rs = ls.Run(cur)
					}
					if !errors.Is(cur.Err(), context.Canceled) {
						t.Fatalf("cursor Err = %v, want context.Canceled", cur.Err())
					}
					if obs.instrs == 0 {
						t.Fatalf("walk ended before block %d", k)
					}
					limit := obs.instrs + trace.PollStride + uint64(cfgs[0].Geometry.BlockWidth)
					for l, r := range rs {
						if r.Instructions < obs.instrs || r.Instructions > limit {
							t.Errorf("lane %d walked %d instructions; cancelled after %d, want at most %d (trace holds %d)",
								l, r.Instructions, obs.instrs, limit, tr.Len())
						}
						if r.Instructions != rs[0].Instructions {
							t.Errorf("lane %d walked %d instructions, lane 0 %d", l, r.Instructions, rs[0].Instructions)
						}
					}
				})
			}
		})
	}
}
