// Package core implements the paper's primary contribution: radix-based
// bias factorization for constant-time sampling with constant-time(-ish)
// updates on dynamically changing graphs.
//
// Every edge bias w is decomposed into power-of-two sub-biases by its binary
// representation (Equation 3); sub-biases at the same bit position k form
// group p_k with total weight W(p_k) = count_k · 2^k (Equation 4). Sampling
// is hierarchical (§4.1): an alias table across groups (O(1)), then uniform
// sampling inside the chosen group (O(1)), which is unbiased because every
// member of group p_k contributes exactly 2^k. Updates touch only the O(K)
// groups a bias participates in (K = log2(max bias)), not the O(d) neighbor
// set the alias method would rebuild.
//
// The package also implements:
//
//   - the adaptive group representation of §5.1 (dense / one-element /
//     sparse / regular groups, Equation 9 with α = 40, β = 10), which trades
//     the naive O(d·K) memory for rejection sampling inside dense groups;
//   - floating-point biases per §4.3 (amortization factor λ, a decimal
//     group holding fractional remainders);
//   - batched updates per §5.2 (per-source reordering, insert → delete →
//     rebuild per vertex, the 2-phase parallel delete-and-swap, and group
//     type conversions deferred to the rebuild step);
//   - arbitrary radix bases 2^b per supplement §9.2, implemented by
//     flattening the inter-subgroup hierarchy: each (digit position j,
//     digit value v) pair is its own unbiased group with weight
//     count · v · 2^(b·j); for b = 1 this degenerates to the paper's
//     base-2 layout.
//
// The Sampler is the system of record for the graph: it owns the dynamic
// adjacency store (internal/adj, the Hornet analogue), exactly as Bingo
// stores graph and metadata together on the GPU.
package core

import (
	"errors"
	"fmt"
	"runtime"
)

// Default adaptive-representation thresholds (paper Equation 9: "we set
// α = 40 and β = 10 in our design for the optimal performance").
const (
	DefaultAlphaPct = 40.0
	DefaultBetaPct  = 10.0
)

// demoteHysteresis scales a threshold for leaving a representation, so a
// group oscillating around a boundary does not convert on every update.
// Streaming conversions are therefore amortized O(1); batch rebuilds use the
// exact Equation 9 classification, as the paper prescribes.
const demoteHysteresis = 0.75

// Config parameterizes a Sampler. The zero value is not valid; start from
// DefaultConfig.
type Config struct {
	// RadixBits is b in radix base B = 2^b. The paper evaluates b = 1
	// (binary factorization); larger bases reduce the group count at the
	// cost of intra-group subgrouping (supplement §9.2). Valid range 1..8.
	RadixBits int

	// Adaptive enables the §5.1 group-adaptive representation. Disabling
	// it forces every group to the regular representation — the "BS"
	// baseline of Figures 11 and 13.
	Adaptive bool

	// AlphaPct and BetaPct are the Equation 9 thresholds (percent).
	AlphaPct, BetaPct float64

	// FloatBias enables §4.3 floating-point biases: Insert and batch
	// updates interpret FBias, scale by Lambda, and maintain the decimal
	// group.
	FloatBias bool

	// Lambda is the §4.3 amortization factor. Zero selects an automatic
	// power of two targeting W_D/(W_I+W_D) < 1/d on the initial snapshot;
	// a float-mode Sampler's Config reports the λ it chose.
	Lambda float64

	// IndexThreshold is the adjacency-row degree at which hash-indexed
	// edge lookup is enabled; zero selects adj.DefaultIndexThreshold.
	IndexThreshold int

	// Workers bounds the parallelism of batch updates and of
	// NewFromCSR's build; zero selects GOMAXPROCS.
	Workers int

	// Instrument enables per-phase timing of batched updates
	// (insert/delete vs rebuild), the breakdown Figure 13 reports.
	// It adds two clock reads per touched vertex per batch.
	Instrument bool
}

// DefaultConfig returns the paper's evaluated configuration: binary radix,
// adaptive groups, α = 40, β = 10, integer biases.
func DefaultConfig() Config {
	return Config{
		RadixBits: 1,
		Adaptive:  true,
		AlphaPct:  DefaultAlphaPct,
		BetaPct:   DefaultBetaPct,
	}
}

// normalized fills zero fields with defaults and validates ranges.
func (c Config) normalized() (Config, error) {
	if c.RadixBits == 0 {
		c.RadixBits = 1
	}
	if c.RadixBits < 1 || c.RadixBits > 8 {
		return c, fmt.Errorf("core: RadixBits %d out of [1,8]", c.RadixBits)
	}
	if c.AlphaPct == 0 {
		c.AlphaPct = DefaultAlphaPct
	}
	if c.BetaPct == 0 {
		c.BetaPct = DefaultBetaPct
	}
	if c.AlphaPct <= 0 || c.AlphaPct > 100 || c.BetaPct <= 0 || c.BetaPct >= c.AlphaPct {
		return c, fmt.Errorf("core: thresholds α=%v β=%v invalid", c.AlphaPct, c.BetaPct)
	}
	if c.Lambda < 0 {
		return c, fmt.Errorf("core: negative Lambda %v", c.Lambda)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c, nil
}

// Errors returned by Sampler operations.
var (
	// ErrEdgeNotFound reports a deletion of an edge that is not live.
	ErrEdgeNotFound = errors.New("core: edge not found")
	// ErrZeroBias reports an insertion whose bias carries no mass.
	ErrZeroBias = errors.New("core: edge bias is zero")
	// ErrVertexRange reports a vertex outside the sampler's ID space.
	ErrVertexRange = errors.New("core: vertex out of range")
)

// GroupKind identifies a group representation (paper Equation 9).
type GroupKind uint8

const (
	// KindEmpty marks an unused group slot.
	KindEmpty GroupKind = iota
	// KindDense keeps only a member count; intra-group sampling rejects
	// over the raw neighbor list.
	KindDense
	// KindOne stores the single member inline.
	KindOne
	// KindSparse keeps a member list plus a compact hash inverted index.
	KindSparse
	// KindRegular keeps a member list plus a full d-sized inverted index.
	KindRegular
)

// NumKinds is the number of GroupKind values, for conversion matrices.
const NumKinds = 5

func (k GroupKind) String() string {
	switch k {
	case KindEmpty:
		return "empty"
	case KindDense:
		return "dense"
	case KindOne:
		return "one-element"
	case KindSparse:
		return "sparse"
	case KindRegular:
		return "regular"
	default:
		return fmt.Sprintf("GroupKind(%d)", uint8(k))
	}
}

// classify applies Equation 9 exactly: dense if |G|/d > α%, else
// one-element if |G| == 1, else sparse if |G|/d < β%, else regular.
func classify(count int32, d int, alphaPct, betaPct float64) GroupKind {
	if count == 0 {
		return KindEmpty
	}
	ratio := float64(count) * 100 / float64(d)
	switch {
	case ratio > alphaPct:
		return KindDense
	case count == 1:
		return KindOne
	case ratio < betaPct:
		return KindSparse
	default:
		return KindRegular
	}
}

// wantConvert decides whether a group currently using representation cur
// should convert under streaming updates. Promotions happen at the exact
// Equation 9 boundary; demotions out of dense (and promotions out of
// sparse) apply hysteresis so boundary oscillation cannot cause O(d)
// conversions per O(1) update.
func wantConvert(cur GroupKind, count int32, d int, alphaPct, betaPct float64) (GroupKind, bool) {
	target := classify(count, d, alphaPct, betaPct)
	if target == cur {
		return cur, false
	}
	ratio := 0.0
	if d > 0 {
		ratio = float64(count) * 100 / float64(d)
	}
	switch {
	case cur == KindDense && target != KindEmpty:
		// Stay dense until the ratio falls well below α.
		if ratio > alphaPct*demoteHysteresis {
			return cur, false
		}
	case cur == KindSparse && target == KindRegular:
		// Stay sparse until the ratio rises well above β.
		if ratio < betaPct/demoteHysteresis {
			return cur, false
		}
	case cur == KindRegular && target == KindSparse:
		// Stay regular until the ratio falls well below β.
		if ratio > betaPct*demoteHysteresis {
			return cur, false
		}
	}
	return target, target != cur
}
