package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/fabric/chaos"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/walk"
)

// Backpressure is the credited-ingest scenario: a two-shard session
// where one shard applies updates slowly (a per-element delay injected
// at the fabric), fed as fast as the client can push. With the credit
// window disabled the feed returns immediately and the slow shard's
// ingest queue absorbs the entire tape — the routed-but-unapplied
// backlog is unbounded, which is the memory blowup the credits were
// built to prevent. With a window, Feed blocks once the backlog hits
// the window, so the backlog stays bounded at exactly the configured
// size while end-to-end time is unchanged (the slow shard is the
// bottleneck either way). The sweep reports both halves of that trade:
// feed-side latency and the peak routed-but-unapplied backlog. Emits
// BENCH_backpressure.json.

// BackpressureSeries is one measured credit-window cell.
type BackpressureSeries struct {
	// Window is the credit window in ingest elements; -1 means credits
	// disabled (the pre-credit fabric's behavior).
	Window         int     `json:"window"`
	Updates        int64   `json:"updates"`
	FeedSec        float64 `json:"feed_sec"`  // wall time until the last Feed returned
	TotalSec       float64 `json:"total_sec"` // wall time through Sync (backlog drained)
	UpdatesPerSec  float64 `json:"updates_per_sec"`
	MaxOutstanding int64   `json:"max_outstanding"` // peak routed-but-unapplied backlog
	StalledSec     float64 `json:"stalled_sec"`     // total time Feed spent blocked on credits
}

// BackpressureReport is the BENCH_backpressure.json document.
type BackpressureReport struct {
	Scenario       string               `json:"scenario"`
	Shards         int                  `json:"shards"`
	TotalUpdates   int                  `json:"total_updates"`
	SlowShardDelay string               `json:"slow_shard_delay"`
	GOMAXPROCS     int                  `json:"gomaxprocs"`
	Series         []BackpressureSeries `json:"series"`
}

const (
	backpressureShards = 2
	backpressureVerts  = 4096
	backpressureTotal  = 24_000
	backpressureChunk  = 128
	// backpressureDelay is the injected apply cost per routed sub-batch
	// on the slow shard — ~10x the feeder's cost per chunk, so an
	// unpaced feed runs the whole tape ahead of the slow shard.
	backpressureDelay = time.Millisecond
)

func runBackpressure(o *Options) error {
	rep := BackpressureReport{
		Scenario:       "Backpressure",
		Shards:         backpressureShards,
		TotalUpdates:   backpressureTotal,
		SlowShardDelay: backpressureDelay.String(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
	}

	tbl := newTable(o.Out)
	tbl.row("window", "feed s", "total s", "updates/s", "max outstanding", "stalled s")
	for _, window := range []int{-1, 1024, 4096, walk.DefaultCreditWindow} {
		ser, err := backpressureCell(o, window)
		if err != nil {
			return fmt.Errorf("window %d: %w", window, err)
		}
		rep.Series = append(rep.Series, ser)
		label := fmt.Sprintf("%d", ser.Window)
		if ser.Window < 0 {
			label = "off"
		}
		tbl.row(
			label,
			fmt.Sprintf("%.2f", ser.FeedSec),
			fmt.Sprintf("%.2f", ser.TotalSec),
			fmt.Sprintf("%.0f", ser.UpdatesPerSec),
			fmt.Sprintf("%d", ser.MaxOutstanding),
			fmt.Sprintf("%.2f", ser.StalledSec),
		)
	}
	tbl.flush()

	if o.BackpressureJSONPath != "" {
		data, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.BackpressureJSONPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "wrote %s\n", o.BackpressureJSONPath)
	}
	return nil
}

// backpressureCell runs one window setting over a fresh chaos fabric:
// shard 1 gets the per-element ingest delay, shard 0 applies at full
// speed, and the tape alternates sources so both see half the load.
func backpressureCell(o *Options, window int) (BackpressureSeries, error) {
	fab := chaos.New(backpressureShards)
	fab.SetFault(1, chaos.Fault{Delay: backpressureDelay}, chaos.Fault{})

	plan := walk.NewShardPlan(backpressureVerts, backpressureShards)
	nodeDone := make([]chan struct{}, backpressureShards)
	for i := 0; i < backpressureShards; i++ {
		s, err := core.New(backpressureVerts, core.DefaultConfig())
		if err != nil {
			return BackpressureSeries{}, err
		}
		done := make(chan struct{})
		nodeDone[i] = done
		go func(shard int, e walk.LiveEngine) {
			defer close(done)
			walk.RunShardNode(e, plan, shard, fab.ShardPort(shard), 1, fabric.CacheSpec{}, walk.KernelAuto) //nolint:errcheck // session errors surface via svc
		}(i, concurrent.Wrap(s, concurrent.Config{}))
	}
	svc, err := walk.NewShardedLiveServiceOver(fab.CoordPort(), nil, plan, backpressureVerts, walk.ShardedLiveConfig{
		WalkLength: 4,
		Seed:       o.Seed,
		// A shallow feed queue keeps the run-ahead bound at the credit
		// window itself: once the router stalls on credits the queue
		// fills and Feed blocks, which is the end-to-end path a real
		// ingest client sits on.
		QueueDepth:   16,
		CreditWindow: window,
	})
	if err != nil {
		return BackpressureSeries{}, err
	}

	start := time.Now()
	for lo := 0; lo < backpressureTotal; lo += backpressureChunk {
		n := backpressureChunk
		if lo+n > backpressureTotal {
			n = backpressureTotal - lo
		}
		ups := make([]graph.Update, n)
		for i := range ups {
			k := lo + i
			ups[i] = graph.Update{
				Op:   graph.OpInsert,
				Src:  graph.VertexID(k % backpressureVerts),
				Dst:  graph.VertexID((k + 1) % backpressureVerts),
				Bias: uint64(1 + k%100),
			}
		}
		if err := svc.Feed(ups); err != nil {
			return BackpressureSeries{}, fmt.Errorf("feed: %w", err)
		}
	}
	feedSec := time.Since(start).Seconds()
	if err := svc.Sync(); err != nil {
		return BackpressureSeries{}, fmt.Errorf("sync: %w", err)
	}
	totalSec := time.Since(start).Seconds()
	st := svc.Stats()
	if err := svc.Close(); err != nil {
		return BackpressureSeries{}, fmt.Errorf("close: %w", err)
	}
	for _, d := range nodeDone {
		<-d
	}
	if st.Dropped > 0 {
		return BackpressureSeries{}, fmt.Errorf("%d feed batches dropped", st.Dropped)
	}

	return BackpressureSeries{
		Window:         window,
		Updates:        st.Updates,
		FeedSec:        feedSec,
		TotalSec:       totalSec,
		UpdatesPerSec:  float64(st.Updates) / totalSec,
		MaxOutstanding: st.Backpressure.MaxOutstanding,
		StalledSec:     st.Backpressure.Stalled.Seconds(),
	}, nil
}
