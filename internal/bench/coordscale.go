package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/walk"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// CoordScale is the query-tier scale-out scenario: one write-coordinator
// owns a fixed 4-shard set while 1/2/4 read-coordinators attach to it
// and serve a fixed client fleet, on both the in-process and loopback
// TCP fabrics. The workload is tenant-partitioned hub traffic — a graph
// of disjoint communities, each striped across every shard, with the
// fleet routed to readers by community (the standard front-end sharding
// a query tier does) — so each reader's hub-view working set shrinks as
// readers are added. The measured scaling mechanism is therefore the
// one the reader tier actually provides: aggregate hub-view cache
// capacity and front-end parallelism. One reader thrashes a view cache
// sized below the full working set and keeps launching walkers into the
// shard set; four readers hold their partitions resident and serve
// whole walks locally, so aggregate walks/s rises with reader count at
// fixed shard count. Emits BENCH_coordscale.json for diffing runs.

// CoordScaleSeries is one measured (transport, readers) grid cell.
type CoordScaleSeries struct {
	Transport    string  `json:"transport"`
	Readers      int     `json:"readers"`
	Walks        int64   `json:"walks"`
	Steps        int64   `json:"steps"`
	LocalHits    int64   `json:"local_hits"` // hops served from reader view caches
	Launches     int64   `json:"launches"`   // walker launches into the shard set
	ViewRequests int64   `json:"view_requests"`
	CachedViews  int     `json:"cached_views"` // summed post-window cache population
	ElapsedSec   float64 `json:"elapsed_sec"`
	WalksPerSec  float64 `json:"walks_per_sec"`
	StepsPerSec  float64 `json:"steps_per_sec"`
	LocalHitRate float64 `json:"local_hit_rate"` // local_hits/steps
}

// CoordScaleReport is the BENCH_coordscale.json document.
type CoordScaleReport struct {
	Scenario     string             `json:"scenario"`
	Workload     string             `json:"workload"`
	Vertices     int                `json:"vertices"`
	Edges        int64              `json:"edges"`
	Shards       int                `json:"shards"`
	Clients      int                `json:"clients"`
	WalkLength   int                `json:"walk_length"`
	ViewCapacity int                `json:"view_capacity"` // per-reader hub-view cache size
	GOMAXPROCS   int                `json:"gomaxprocs"`
	Series       []CoordScaleSeries `json:"series"`
}

// The coordscale grid and workload geometry.
var coordReaderSweep = []int{1, 2, 4}

const (
	// coordShards is the fixed shard count the reader sweep runs over.
	coordShards = 4
	// coordCommunities × coordCommSize is the vertex space: disjoint
	// "tenant" communities, each striped across all shards (member j of
	// community c is vertex c + j*coordCommunities, so every intra-
	// community hop is a cross-shard hop when shard-served).
	coordCommunities = 64
	coordCommSize    = 16
	// coordViewCap sizes each reader's hub-view cache below the full
	// working set (64×16 = 1024 vertices) but above a 4-way partition of
	// it (256): one reader thrashes, four hold their partitions resident.
	coordViewCap = 320
	// coordClients is the fixed client fleet split across the readers.
	coordClients = 8
	// coordWarmPerClient is each client's pre-window cache-warming quota.
	coordWarmPerClient = 256
	// coordWindow is the minimum measurement window per cell (same
	// rationale as shardedMinWindow, much wider because the reader cells
	// compare steady states whose gap must clear both scheduler noise
	// and the FIFO view-cache's churn-order variance).
	coordWindow = time.Second
	// coordQuota is the per-client walk quota inside the window.
	coordQuota = 64
)

// coordGraph builds the tenant-community graph: each community is a hub
// star plus a member ring (hub→members, member→hub, member→next member),
// with no cross-community edges, so a walk's visited set is exactly its
// start community and a reader fronting a community partition has a
// closed working set.
func coordGraph() (*graph.CSR, error) {
	n := coordCommunities * coordCommSize
	vid := func(c, j int) graph.VertexID { return graph.VertexID(c + j*coordCommunities) }
	var edges []graph.Edge
	for c := 0; c < coordCommunities; c++ {
		hub := vid(c, 0)
		for j := 1; j < coordCommSize; j++ {
			m := vid(c, j)
			nxt := j + 1
			if nxt >= coordCommSize {
				nxt = 1
			}
			edges = append(edges,
				graph.Edge{Src: hub, Dst: m, Bias: 1},
				graph.Edge{Src: m, Dst: hub, Bias: 1},
				graph.Edge{Src: m, Dst: vid(c, nxt), Bias: 1},
			)
		}
	}
	return graph.FromEdges(n, edges)
}

// coordCell is one running (transport, readers) deployment: the write
// service plus R attached readers.
type coordCell struct {
	svc     *walk.ShardedLiveService
	readers []*walk.ReaderService
}

// coordSpec is the session cache spec: MinDegree 1 makes every connected
// vertex view-servable (the community members a walk must cross are
// degree 2), and the reader-side RemoteSize/RequestAfter give each
// reader a coordViewCap-entry cache filled on first crossing.
func coordSpec() fabric.CacheSpec {
	return fabric.CacheSpec{MinDegree: 1, RemoteSize: coordViewCap, RequestAfter: 1}
}

// newCoordCell deploys the shard set and write session on the chosen
// transport (the sharded runner's constructions, which on tcp put the
// shard nodes behind real loopback sockets), then attaches R readers
// through the service's own read-port constructor.
func newCoordCell(o *Options, g *graph.CSR, transport string, readers int) (*coordCell, error) {
	spec := coordSpec()
	cfg := walk.ShardedLiveConfig{WalkersPerShard: 2, WalkLength: o.WalkLength, Seed: o.Seed, Cache: spec}
	svc, err := newShardedServiceWithConfig(o, g, transport, spec, coordShards, 2, cfg)
	if err != nil {
		return nil, err
	}
	cell := &coordCell{svc: svc}
	for i := 0; i < readers; i++ {
		rd, err := svc.AttachReader(walk.ReaderConfig{Seed: o.Seed ^ 0xead, Cache: spec})
		if err != nil {
			cell.close()
			return nil, err
		}
		cell.readers = append(cell.readers, rd)
	}
	return cell, nil
}

func (c *coordCell) close() {
	for _, rd := range c.readers {
		rd.Close()
	}
	c.svc.Close()
}

// coordStarts returns reader r's start set under an R-way community
// partition: the hubs of communities c with c % R == r.
func coordStarts(r, readers int) []graph.VertexID {
	var starts []graph.VertexID
	for c := r; c < coordCommunities; c += readers {
		starts = append(starts, graph.VertexID(c))
	}
	return starts
}

// coordPick draws a start index with the hot-tenant skew (density
// concentrated on the low indices, ~cube-law): the hot communities stay
// resident in a reader's view cache while the cold tail churns it, so
// the cache hit rate — and with it aggregate walks/s — grades with the
// per-reader partition size instead of cliffing at exact residency.
func coordPick(r *xrand.RNG, n int) int {
	u := r.Float64()
	i := int(float64(n) * u * u * u * u)
	if i >= n {
		i = n - 1
	}
	return i
}

// coordCellRun measures one (transport, readers) point: warm each
// reader's view cache with its own partition traffic, then run the fixed
// client fleet (client i is wired to reader i%R, drawing starts from
// that reader's partition) for at least coordWindow and report the
// aggregate.
func coordCellRun(o *Options, g *graph.CSR, transport string, readers int) (CoordScaleSeries, error) {
	cell, err := newCoordCell(o, g, transport, readers)
	if err != nil {
		return CoordScaleSeries{}, err
	}
	defer cell.close()

	runFleet := func(measure bool) (int64, time.Duration, error) {
		start := time.Now()
		var walks atomic.Int64
		var firstErr atomic.Value
		var wg sync.WaitGroup
		for i := 0; i < coordClients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rd := cell.readers[i%readers]
				starts := coordStarts(i%readers, readers)
				r := xrand.New(o.Seed ^ (uint64(i)*0x9e37 + uint64(len(cell.readers))))
				for q := 0; ; q++ {
					if measure {
						if q >= coordQuota && time.Since(start) >= coordWindow {
							return
						}
					} else if q >= coordWarmPerClient {
						return
					}
					if _, err := rd.Query(starts[coordPick(r, len(starts))], o.WalkLength); err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
					walks.Add(1)
				}
			}(i)
		}
		wg.Wait()
		if err, _ := firstErr.Load().(error); err != nil {
			return 0, 0, err
		}
		return walks.Load(), time.Since(start), nil
	}

	// Warm outside the window: fill each reader's view cache to its
	// steady state (full partitions at high reader counts, thrash at low
	// ones) so the measured cells compare steady states, not ramps.
	if _, _, err := runFleet(false); err != nil {
		return CoordScaleSeries{}, fmt.Errorf("warmup: %w", err)
	}
	base := make([]walk.ReaderStats, readers)
	for i, rd := range cell.readers {
		base[i] = rd.Stats()
	}
	walks, elapsed, err := runFleet(true)
	if err != nil {
		return CoordScaleSeries{}, err
	}
	ser := CoordScaleSeries{
		Transport:  transport,
		Readers:    readers,
		Walks:      walks,
		ElapsedSec: elapsed.Seconds(),
	}
	for i, rd := range cell.readers {
		st := rd.Stats()
		ser.Steps += st.Steps - base[i].Steps
		ser.LocalHits += st.LocalHits - base[i].LocalHits
		ser.Launches += st.Launches - base[i].Launches
		ser.ViewRequests += st.ViewRequests - base[i].ViewRequests
		ser.CachedViews += st.CachedViews
	}
	ser.WalksPerSec = float64(walks) / elapsed.Seconds()
	ser.StepsPerSec = float64(ser.Steps) / elapsed.Seconds()
	if ser.Steps > 0 {
		ser.LocalHitRate = float64(ser.LocalHits) / float64(ser.Steps)
	}
	return ser, nil
}

func runCoordScale(o *Options) error {
	g, err := coordGraph()
	if err != nil {
		return err
	}
	rep := CoordScaleReport{
		Scenario:     "CoordScale",
		Workload:     "tenant-communities",
		Vertices:     g.NumVertices(),
		Edges:        g.NumEdges(),
		Shards:       coordShards,
		Clients:      coordClients,
		WalkLength:   o.WalkLength,
		ViewCapacity: coordViewCap,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
	}
	tbl := newTable(o.Out)
	tbl.row("transport", "readers", "walks/s", "steps/s", "hit rate", "launches", "cached views")
	for _, transport := range o.Transports {
		for _, readers := range coordReaderSweep {
			ser, err := coordCellRun(o, g, transport, readers)
			if err != nil {
				return fmt.Errorf("%s readers=%d: %w", transport, readers, err)
			}
			rep.Series = append(rep.Series, ser)
			tbl.row(
				ser.Transport,
				fmt.Sprintf("%d", ser.Readers),
				fmt.Sprintf("%.0f", ser.WalksPerSec),
				fmt.Sprintf("%.0f", ser.StepsPerSec),
				fmt.Sprintf("%.3f", ser.LocalHitRate),
				fmt.Sprintf("%d", ser.Launches),
				fmt.Sprintf("%d", ser.CachedViews),
			)
		}
	}
	tbl.flush()

	if o.CoordScaleJSONPath != "" {
		data, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.CoordScaleJSONPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "wrote %s\n", o.CoordScaleJSONPath)
	}
	return nil
}
