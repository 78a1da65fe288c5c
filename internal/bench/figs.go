package bench

import (
	"fmt"
	"time"

	"github.com/bingo-rw/bingo/internal/baseline"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/gen"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/walk"
)

// biasedDataset generates a dataset with an explicit bias distribution.
func (o *Options) biasedDataset(abbr string, kind gen.BiasKind, float bool) (gen.Dataset, *graph.CSR, error) {
	d, err := gen.DatasetByAbbr(abbr)
	if err != nil {
		return d, nil, err
	}
	g, err := d.GenerateBias(o.effScale(d), o.Seed, gen.BiasConfig{
		Kind: kind, Max: 1024, Seed: o.Seed, Float: float,
	})
	return d, g, err
}

// runFig9 reports the average per-vertex group element ratio |G_j|/d for
// each bit position j under uniform, Gaussian, and power-law biases —
// Figure 9's three series. Uniform biases fill low positions near 50%;
// power-law biases concentrate elements in fewer positions.
func runFig9(o *Options) error {
	abbr := o.Datasets[0]
	kinds := []gen.BiasKind{gen.BiasUniform, gen.BiasGauss, gen.BiasPowerLaw}
	series := make([][]float64, len(kinds))
	maxLen := 0
	for i, k := range kinds {
		_, g, err := o.biasedDataset(abbr, k, false)
		if err != nil {
			return err
		}
		s, err := core.NewFromCSR(g, o.bingoConfig())
		if err != nil {
			return err
		}
		series[i] = s.GroupElementRatios()
		if len(series[i]) > maxLen {
			maxLen = len(series[i])
		}
	}
	if maxLen > 10 {
		maxLen = 10 // the paper plots positions 0..9
	}
	t := newTable(o.Out)
	t.row("group index", "Uniform", "Gauss", "Power-law")
	for j := 0; j < maxLen; j++ {
		row := []string{fmt.Sprint(j)}
		for i := range kinds {
			v := 0.0
			if j < len(series[i]) {
				v = series[i][j]
			}
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		t.row(row...)
	}
	t.flush()
	return nil
}

// runFig11 compares the baseline all-regular representation (BS) with the
// group-adaptive one (GA): overall memory per dataset, the per-kind
// savings panels, and the group-kind ratio panel. A second table splits
// each GA footprint by structure, in bytes per edge; its parts add up to
// the GA total.
func runFig11(o *Options) error {
	t := newTable(o.Out)
	t.row("dataset", "BS total(GB)", "GA total(GB)", "saving×",
		"dense BS/GA(MB)", "one BS/GA(MB)", "sparse BS/GA(MB)",
		"dense%", "regular%", "sparse%", "one%")
	parts := newTable(o.Out)
	parts.row("dataset", "B/edge", "vertex", "hdr dense", "hdr one", "hdr sparse", "hdr regular",
		"slack", "members", "indices", "alias", "decimal", "adjacency")
	for _, abbr := range o.Datasets {
		_, g, err := o.dataset(abbr)
		if err != nil {
			return err
		}
		bsCfg := o.bingoConfig()
		bsCfg.Adaptive = false
		bs, err := core.NewFromCSR(g, bsCfg)
		if err != nil {
			return err
		}
		bsTotal := bs.Footprint()
		bs = nil // release before building GA

		ga, err := core.NewFromCSR(g, o.bingoConfig())
		if err != nil {
			return err
		}
		gaTotal := ga.Footprint()
		sav := ga.AdaptiveSavings()
		gs := ga.CollectGroupStats()
		var groups int64
		for _, n := range gs.Groups {
			groups += n
		}
		pct := func(k core.GroupKind) string {
			if groups == 0 {
				return "0"
			}
			return fmt.Sprintf("%.1f", float64(gs.Groups[k])*100/float64(groups))
		}
		pair := func(k core.GroupKind) string {
			return mb(sav[k].BS) + "/" + mb(sav[k].GA)
		}
		t.row(abbr, gb(bsTotal), gb(gaTotal),
			fmt.Sprintf("%.1f", float64(bsTotal)/float64(gaTotal)),
			pair(core.KindDense), pair(core.KindOne), pair(core.KindSparse),
			pct(core.KindDense), pct(core.KindRegular), pct(core.KindSparse), pct(core.KindOne))
		fb := ga.CollectFootprint()
		perEdge := func(b int64) string { return fmt.Sprintf("%.1f", float64(b)/float64(ga.NumEdges())) }
		parts.row(abbr, perEdge(fb.Total), perEdge(fb.VertexHdr),
			perEdge(fb.Headers[core.KindDense]), perEdge(fb.Headers[core.KindOne]),
			perEdge(fb.Headers[core.KindSparse]), perEdge(fb.Headers[core.KindRegular]),
			perEdge(fb.Slack), perEdge(fb.Members), perEdge(fb.Indices),
			perEdge(fb.Alias), perEdge(fb.Decimal), perEdge(fb.Adjacency))
	}
	t.flush()
	fmt.Fprintln(o.Out)
	parts.flush()
	return nil
}

// runFig12 measures streaming versus batched ingestion throughput for the
// three update situations.
func runFig12(o *Options) error {
	t := newTable(o.Out)
	t.row("dataset", "updates", "updates/s streaming", "updates/s batched", "speedup")
	for _, abbr := range o.Datasets {
		d, g, err := o.dataset(abbr)
		if err != nil {
			return err
		}
		for _, kind := range []gen.UpdateKind{gen.UpdInsertion, gen.UpdDeletion, gen.UpdMixed} {
			w, err := o.workload(abbr, g, kind, o.batchSize(d))
			if err != nil {
				return err
			}
			total := len(w.Updates)
			sEng, err := core.NewFromCSR(w.Initial, o.bingoConfig())
			if err != nil {
				return err
			}
			streamDur := timed(func() {
				if err := sEng.ApplyUpdatesStreaming(w.Updates); err != nil {
					panic(err)
				}
			})
			sEng = nil
			bEng, err := core.NewFromCSR(w.Initial, o.bingoConfig())
			if err != nil {
				return err
			}
			batchDur := timed(func() {
				for _, b := range w.Batches() {
					if _, err := bEng.ApplyBatch(b); err != nil {
						panic(err)
					}
				}
			})
			st := float64(total) / streamDur.Seconds()
			bt := float64(total) / batchDur.Seconds()
			t.row(abbr, kind.String(),
				fmt.Sprintf("%.0f", st), fmt.Sprintf("%.0f", bt),
				fmt.Sprintf("%.1f", bt/st))
		}
	}
	t.flush()
	return nil
}

// runFig13 reports the batched-update time breakdown (reorder by source,
// insert/delete, rebuild) plus sampling time, for BS and GA.
func runFig13(o *Options) error {
	t := newTable(o.Out)
	t.row("dataset", "mode", "reorder(s)", "insert/delete(s)", "rebuild(s)", "sampling(s)", "total(s)")
	for _, abbr := range o.Datasets {
		d, g, err := o.dataset(abbr)
		if err != nil {
			return err
		}
		w, err := o.workload(abbr, g, gen.UpdMixed, o.batchSize(d))
		if err != nil {
			return err
		}
		for _, mode := range []string{"BS", "GA"} {
			cfg := o.bingoConfig()
			cfg.Instrument = true
			cfg.Adaptive = mode == "GA"
			s, err := core.NewFromCSR(w.Initial, cfg)
			if err != nil {
				return err
			}
			s.ResetPhaseTimes()
			for _, b := range w.Batches() {
				if _, err := s.ApplyBatch(b); err != nil {
					return err
				}
			}
			ph := s.PhaseTimes()
			wcfg := o.walkConfig(w.Initial.NumVertices())
			sampDur := timed(func() {
				walk.SimpleSampling(s, wcfg)
			})
			total := ph.Reorder + ph.InsertDelete + ph.Rebuild + sampDur
			t.row(abbr, mode, secs(ph.Reorder), secs(ph.InsertDelete), secs(ph.Rebuild), secs(sampDur), secs(total))
		}
	}
	t.flush()
	return nil
}

// runFig14 compares integer biases with float biases (integer + U[0,1),
// the paper's fair-comparison construction) on time and memory.
func runFig14(o *Options) error {
	t := newTable(o.Out)
	t.row("dataset", "int time(s)", "float time(s)", "ratio", "int mem(GB)", "float mem(GB)", "ratio")
	for _, abbr := range o.Datasets {
		d, gInt, err := o.dataset(abbr)
		if err != nil {
			return err
		}
		_, gFloat, err := o.biasedDataset(abbr, gen.BiasDegree, true)
		if err != nil {
			return err
		}
		run := func(g *graph.CSR, float bool) (time.Duration, int64, error) {
			cfg := o.bingoConfig()
			cfg.FloatBias = float
			s, err := core.NewFromCSR(g, cfg)
			if err != nil {
				return 0, 0, err
			}
			// The float workload must carry the float graph's FBias
			// values, so it cannot share the integer-run cache entry.
			w, err := gen.BuildWorkload(g, gen.UpdMixed, o.batchSize(d), o.Rounds, o.Seed)
			if err != nil {
				return 0, 0, err
			}
			wcfg := o.walkConfig(g.NumVertices())
			dur := timed(func() {
				for _, b := range w.Batches() {
					if err := s.ApplyUpdates(b); err != nil {
						panic(err)
					}
					walk.DeepWalk(s, wcfg)
				}
			})
			return dur, s.Footprint(), nil
		}
		intDur, intMem, err := run(gInt, false)
		if err != nil {
			return err
		}
		fDur, fMem, err := run(gFloat, true)
		if err != nil {
			return err
		}
		t.row(abbr, secs(intDur), secs(fDur),
			fmt.Sprintf("%.2f", fDur.Seconds()/intDur.Seconds()),
			gb(intMem), gb(fMem),
			fmt.Sprintf("%.2f", float64(fMem)/float64(intMem)))
	}
	t.flush()
	return nil
}

// runFig15a sweeps the update batch size for a fixed total update volume
// (the paper: 1 M updates on LJ at batch sizes 10 K–100 K), comparing Bingo
// with the rebuild-per-round RebuildITS.
func runFig15a(o *Options) error {
	d, g, err := o.dataset("LJ")
	if err != nil {
		return err
	}
	base := o.batchSize(d)
	w, err := gen.BuildWorkload(g, gen.UpdMixed, base, o.Rounds, o.Seed)
	if err != nil {
		return err
	}
	t := newTable(o.Out)
	t.row("batch size", "Bingo time(s)", "RebuildITS time(s)", "speedup")
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		bsz := int(float64(w.BatchSize) * frac)
		if bsz < 1 {
			bsz = 1
		}
		run := func(system string) (time.Duration, error) {
			e, err := o.newEngine(system, w.Initial)
			if err != nil {
				return 0, err
			}
			wcfg := o.walkConfig(w.Initial.NumVertices())
			// Cap walk cost per round so ingestion dominates the sweep
			// the way the paper's GPU walk phase does.
			if len(wcfg.Starts) > 1000 {
				wcfg.Starts = wcfg.Starts[:1000]
			}
			return timed(func() {
				for lo := 0; lo < len(w.Updates); lo += bsz {
					hi := lo + bsz
					if hi > len(w.Updates) {
						hi = len(w.Updates)
					}
					if err := e.ApplyUpdates(w.Updates[lo:hi]); err != nil {
						panic(err)
					}
					walk.DeepWalk(e, wcfg)
				}
			}), nil
		}
		bingoDur, err := run("Bingo")
		if err != nil {
			return err
		}
		itsDur, err := run("RebuildITS")
		if err != nil {
			return err
		}
		t.row(fmt.Sprint(bsz), secs(bingoDur), secs(itsDur),
			fmt.Sprintf("%.2f", itsDur.Seconds()/bingoDur.Seconds()))
	}
	t.flush()
	return nil
}

// runFig15b sweeps the walk length (paper: 20–100), comparing Bingo with
// RebuildITS on one update round plus the walk.
func runFig15b(o *Options) error {
	d, g, err := o.dataset("LJ")
	if err != nil {
		return err
	}
	w, err := gen.BuildWorkload(g, gen.UpdMixed, o.batchSize(d), 1, o.Seed)
	if err != nil {
		return err
	}
	bingo, err := o.newEngine("Bingo", w.Initial)
	if err != nil {
		return err
	}
	its := baseline.NewRebuildITS(w.Initial)
	if err := bingo.ApplyUpdates(w.Updates); err != nil {
		return err
	}
	if err := its.ApplyUpdates(append([]graph.Update(nil), w.Updates...)); err != nil {
		return err
	}
	t := newTable(o.Out)
	t.row("walk length", "Bingo time(s)", "RebuildITS time(s)", "gap(s)")
	for _, l := range []int{20, 40, 60, 80, 100} {
		wcfg := o.walkConfig(w.Initial.NumVertices())
		wcfg.Length = l
		bd := timed(func() { walk.DeepWalk(bingo, wcfg) })
		id := timed(func() { walk.DeepWalk(its, wcfg) })
		t.row(fmt.Sprint(l), secs(bd), secs(id), secs(id-bd))
	}
	t.flush()
	return nil
}

// runFig15c measures Bingo's time and memory under the three bias
// distributions (paper: uniform is cheapest — more dense groups, lower
// rejection).
func runFig15c(o *Options) error {
	abbr := "LJ"
	t := newTable(o.Out)
	t.row("distribution", "time(s)", "memory(GB)", "dense-group %")
	for _, kind := range []gen.BiasKind{gen.BiasUniform, gen.BiasGauss, gen.BiasPowerLaw} {
		d, g, err := o.biasedDataset(abbr, kind, false)
		if err != nil {
			return err
		}
		s, err := core.NewFromCSR(g, o.bingoConfig())
		if err != nil {
			return err
		}
		w, err := o.workload(abbr, g, gen.UpdMixed, o.batchSize(d))
		if err != nil {
			return err
		}
		wcfg := o.walkConfig(g.NumVertices())
		dur := timed(func() {
			for _, b := range w.Batches() {
				if err := s.ApplyUpdates(b); err != nil {
					panic(err)
				}
				walk.DeepWalk(s, wcfg)
			}
		})
		gs := s.CollectGroupStats()
		var groups int64
		for _, n := range gs.Groups {
			groups += n
		}
		densePct := 0.0
		if groups > 0 {
			densePct = float64(gs.Groups[core.KindDense]) * 100 / float64(groups)
		}
		t.row(kind.String(), secs(dur), gb(s.Footprint()), fmt.Sprintf("%.1f", densePct))
	}
	t.flush()
	return nil
}

// runFig16 is the piecewise breakdown: bulk insertions vs deletions vs
// sampling, Bingo against FlowWalker — extended with the rebuild-based
// systems' update columns (KnightKing_R, RebuildITS_R), which isolate the
// O(E)-reconstruction-per-round cost that Bingo's O(K) updates remove;
// this is where the paper's incremental-maintenance claim shows on equal
// hardware.
func runFig16(o *Options) error {
	t := newTable(o.Out)
	t.row("dataset", "ops", "Bingo_I(s)", "Bingo_D(s)", "FlowWalker_R(s)", "KnightKing_R(s)", "RebuildITS_R(s)", "Bingo smp(s)", "FlowWalker smp(s)", "smp speedup")
	for _, abbr := range o.Datasets {
		d, g, err := o.dataset(abbr)
		if err != nil {
			return err
		}
		nOps := o.batchSize(d) * o.Rounds
		ins, err := gen.BuildWorkload(g, gen.UpdInsertion, o.batchSize(d), o.Rounds, o.Seed)
		if err != nil {
			return err
		}
		del, err := gen.BuildWorkload(g, gen.UpdDeletion, o.batchSize(d), o.Rounds, o.Seed)
		if err != nil {
			return err
		}

		bi, err := core.NewFromCSR(ins.Initial, o.bingoConfig())
		if err != nil {
			return err
		}
		insDur := timed(func() {
			for _, b := range ins.Batches() {
				if _, err := bi.ApplyBatch(b); err != nil {
					panic(err)
				}
			}
		})
		bd, err := core.NewFromCSR(del.Initial, o.bingoConfig())
		if err != nil {
			return err
		}
		delDur := timed(func() {
			for _, b := range del.Batches() {
				if _, err := bd.ApplyBatch(b); err != nil {
					panic(err)
				}
			}
		})
		applyAll := func(e walk.Dynamic) time.Duration {
			return timed(func() {
				for _, b := range ins.Batches() {
					if err := e.ApplyUpdates(b); err != nil {
						panic(err)
					}
				}
				for _, b := range del.Batches() {
					if err := e.ApplyUpdates(b); err != nil {
						panic(err)
					}
				}
			})
		}
		fw := baseline.NewFlowWalker(ins.Initial)
		fwDur := applyAll(fw)
		kkDur := applyAll(baseline.NewKnightKing(ins.Initial))
		itsDur := applyAll(baseline.NewRebuildITS(ins.Initial))

		// Sampling: nOps one-hop samples from *degree-weighted* starts —
		// the vertex mix real walks visit (walkers concentrate on hubs),
		// which is where FlowWalker's O(d) reservoir pays its price.
		// Uniform starts would be dominated by low-degree vertices and
		// hide the effect the paper measures on its walk workloads.
		wcfg := o.walkConfig(ins.Initial.NumVertices())
		wcfg.Starts = degreeWeightedStarts(ins.Initial, len(wcfg.Starts), o.Seed)
		wcfg.Length = nOps / len(wcfg.Starts)
		if wcfg.Length < 1 {
			wcfg.Length = 1
		}
		bs := timed(func() { walk.SimpleSampling(bi, wcfg) })
		fs := timed(func() { walk.SimpleSampling(fw, wcfg) })
		t.row(abbr, fmt.Sprint(nOps), secs(insDur), secs(delDur), secs(fwDur),
			secs(kkDur), secs(itsDur),
			secs(bs), secs(fs), fmt.Sprintf("%.1f", fs.Seconds()/bs.Seconds()))
	}
	t.flush()
	return nil
}
