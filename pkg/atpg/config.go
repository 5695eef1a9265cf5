package atpg

import (
	"encoding/json"
	"fmt"

	"fogbuster/internal/core"
	"fogbuster/internal/logic"
	"fogbuster/internal/order"
	"fogbuster/internal/sim"
)

// Cone-set policy names accepted by Config.ConeSets.
const (
	// ConeSetsAuto picks the cheaper representation per stem (the empty
	// string means auto).
	ConeSetsAuto = "auto"
	// ConeSetsDense forces dense bitsets, the pre-compression oracle.
	ConeSetsDense = "dense"
	// ConeSetsCompressed forces interval lists for every stem.
	ConeSetsCompressed = "compressed"
)

// ConeSetPolicies lists every recognized cone-set policy, auto first.
func ConeSetPolicies() []string { return []string{ConeSetsAuto, ConeSetsDense, ConeSetsCompressed} }

// Algebra names accepted by Config.Algebra.
const (
	// AlgebraRobust is the paper's eight-valued robust algebra, the
	// default (the empty string means robust).
	AlgebraRobust = "robust"
	// AlgebraNonRobust is the paper's proposed non-robust relaxation.
	AlgebraNonRobust = "nonrobust"
)

// Order names accepted by Config.Order (see internal/order for the
// heuristics themselves).
const (
	OrderNatural     = "natural"
	OrderTopological = "topo"
	OrderSCOAP       = "scoap"
	OrderADI         = "adi"
)

// Orders lists every recognized fault-targeting order, natural first.
func Orders() []string { return []string{OrderNatural, OrderTopological, OrderSCOAP, OrderADI} }

// Algebras lists every recognized fault-model algebra.
func Algebras() []string { return []string{AlgebraRobust, AlgebraNonRobust} }

// Config selects the run parameters. The zero value reproduces the
// paper's setup: robust algebra, natural fault order, 100+100 backtrack
// limits. Every field is a flat JSON-taggable value so configurations
// can live in files and service requests; Validate (also called by New)
// reports unknown names and negative budgets as errors.
type Config struct {
	// Algebra selects the fault model: "", "robust" or "nonrobust"
	// ("non-robust" is accepted as an alias).
	Algebra string `json:"algebra,omitempty"`
	// Order selects the fault-targeting order: "", "natural", "topo",
	// "scoap" or "adi". Ordering changes which faults are explicitly
	// targeted versus credited by fault simulation, never a fault's own
	// search.
	Order string `json:"order,omitempty"`
	// LocalBacktracks is the local generator's per-fault budget; 0 means
	// the paper's 100.
	LocalBacktracks int `json:"local_backtracks,omitempty"`
	// SeqBacktracks is the sequential engine's per-fault budget, shared
	// by propagation and synchronization; 0 means the paper's 100.
	SeqBacktracks int `json:"seq_backtracks,omitempty"`
	// MaxFrames bounds propagation and synchronization depth; 0 means 32.
	MaxFrames int `json:"max_frames,omitempty"`
	// DisableFaultSim turns off the post-generation fault simulation
	// credit (every fault is then explicitly targeted).
	DisableFaultSim bool `json:"disable_fault_sim,omitempty"`
	// DisableValidation skips the independent end-to-end check of each
	// generated sequence.
	DisableValidation bool `json:"disable_validation,omitempty"`
	// StrictInit demands true synchronizing sequences from the all-X
	// power-up state instead of the default optimistic policy (see
	// EXPERIMENTS.md).
	StrictInit bool `json:"strict_init,omitempty"`
	// VariationBudget enables the paper's future-work timing refinement
	// with the given slack threshold; 0 keeps the pure robust handoff.
	VariationBudget int `json:"variation_budget,omitempty"`
	// Seed drives the random X-fill, the ADI ordering campaign and the
	// compaction splice fills: one seed, one Result, at any worker count.
	Seed int64 `json:"seed,omitempty"`
	// Workers is the ATPG worker count: 0 uses all CPUs, a negative
	// value forces a single worker. Results are bit-identical at every
	// count.
	Workers int `json:"workers,omitempty"`
	// Compact compacts the generated test set after the run
	// (reverse-order drop + overlap splicing); the statistics land in
	// Result.Compaction. A cancelled run is never compacted.
	Compact bool `json:"compact,omitempty"`
	// ConeSets selects the representation of the per-stem cone membership
	// sets: "", "auto", "dense" or "compressed". Purely a memory/speed
	// trade; results never depend on it. Compressed or auto is what makes
	// >10k-gate circuits practical (the dense all-stems matrix is
	// O(nodes²/8) bytes).
	ConeSets string `json:"cone_sets,omitempty"`
	// MaxTargets, when positive, budgets the run to the first MaxTargets
	// positions of the targeting order; every later fault stays pending
	// unless an in-budget sequence credits it. The processed prefix is
	// bit-identical to the same prefix of an unbudgeted run.
	MaxTargets int `json:"max_targets,omitempty"`
	// Shards, when positive, makes this run one shard of a distributed
	// run split Shards ways over the targeting order; ShardIndex selects
	// which contiguous window of positions this process works
	// (0 <= ShardIndex < Shards). Shard runs defer all fault-simulation
	// credit to MergeResults — each position in the window is explicitly
	// processed and its full detection set recorded — so merging the
	// shards reproduces the single-process canonical Result byte for
	// byte. Shards is incompatible with Compact (compact the merged
	// document instead).
	Shards int `json:"shards,omitempty"`
	// ShardIndex is this run's shard number; meaningful only with Shards.
	ShardIndex int `json:"shard_index,omitempty"`

	// reference runs every engine layer and the compaction on its
	// reference path (core.Options.Reference). Results are identical, so
	// it is absent from the JSON form and the CacheKey; only this
	// package's differential tests set it.
	reference bool
}

// Validate reports the first invalid field: an unknown algebra or order
// name, or a negative budget or depth (zero already means "use the
// default", so a negative value is always a mistake).
func (c Config) Validate() error {
	if _, err := c.algebra(); err != nil {
		return err
	}
	if _, err := order.Parse(c.Order); err != nil {
		return fmt.Errorf("atpg: %v", err)
	}
	switch {
	case c.LocalBacktracks < 0:
		return fmt.Errorf("atpg: negative local_backtracks %d", c.LocalBacktracks)
	case c.SeqBacktracks < 0:
		return fmt.Errorf("atpg: negative seq_backtracks %d", c.SeqBacktracks)
	case c.MaxFrames < 0:
		return fmt.Errorf("atpg: negative max_frames %d", c.MaxFrames)
	case c.VariationBudget < 0:
		return fmt.Errorf("atpg: negative variation_budget %d", c.VariationBudget)
	case c.MaxTargets < 0:
		return fmt.Errorf("atpg: negative max_targets %d", c.MaxTargets)
	case c.Shards < 0:
		return fmt.Errorf("atpg: negative shards %d", c.Shards)
	case c.ShardIndex < 0:
		return fmt.Errorf("atpg: negative shard_index %d", c.ShardIndex)
	case c.Shards == 0 && c.ShardIndex > 0:
		return fmt.Errorf("atpg: shard_index %d without shards", c.ShardIndex)
	case c.Shards > 0 && c.ShardIndex >= c.Shards:
		return fmt.Errorf("atpg: shard_index %d out of range for %d shards", c.ShardIndex, c.Shards)
	case c.Shards > 0 && c.Compact:
		return fmt.Errorf("atpg: shards is incompatible with compact (compact the merged result instead)")
	}
	if _, err := sim.ParseConePolicy(c.ConeSets); err != nil {
		return fmt.Errorf("atpg: %v", err)
	}
	return nil
}

// Canonical validates the configuration and returns its normal form:
// aliases resolved ("" and "non-robust" become the canonical algebra
// names), empty selectors replaced by their named defaults (natural
// order, auto cone sets) and zero budgets by the defaults they mean
// (100 backtracks, 32 frames). Two configurations with equal Canonical
// forms produce identical Results on the same circuit, which makes the
// normal form the right input for result-cache keys and request
// deduplication. The canonical form of a canonical config is itself.
func (c Config) Canonical() (Config, error) {
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	out := c
	switch c.Algebra {
	case "", AlgebraRobust:
		out.Algebra = AlgebraRobust
	default:
		out.Algebra = AlgebraNonRobust
	}
	if out.Order == "" {
		out.Order = OrderNatural
	}
	if out.LocalBacktracks == 0 {
		out.LocalBacktracks = 100
	}
	if out.SeqBacktracks == 0 {
		out.SeqBacktracks = 100
	}
	if out.MaxFrames == 0 {
		out.MaxFrames = 32
	}
	if out.ConeSets == "" {
		out.ConeSets = ConeSetsAuto
	}
	return out, nil
}

// CacheKey returns a deterministic string key for result caching: the
// compact JSON of the Canonical form with ConeSets cleared. ConeSets is
// a pure memory/speed knob, so the Result — canonical JSON included — is
// bit-identical under every setting of it. Workers stays in the key
// because Result echoes it. Invalid configurations are errors.
func (c Config) CacheKey() (string, error) {
	canon, err := c.Canonical()
	if err != nil {
		return "", err
	}
	canon.ConeSets = ""
	b, err := json.Marshal(canon)
	if err != nil {
		return "", fmt.Errorf("atpg: %w", err)
	}
	return string(b), nil
}

// runKey is the CacheKey with the shard selectors (Shards, ShardIndex)
// additionally cleared: the identity of the distributed run every shard
// belongs to. Shards of one run agree on their runKey and MergeResults
// verifies that agreement (ShardInfo.ConfigKey) before merging.
func (c Config) runKey() (string, error) {
	c.Shards = 0
	c.ShardIndex = 0
	return c.CacheKey()
}

// algebra resolves the Algebra field.
func (c Config) algebra() (*logic.Algebra, error) {
	switch c.Algebra {
	case "", AlgebraRobust:
		return logic.Robust, nil
	case AlgebraNonRobust, "non-robust":
		return logic.NonRobust, nil
	}
	return nil, fmt.Errorf("atpg: unknown algebra %q (want robust or nonrobust)", c.Algebra)
}

// engineOptions translates a validated Config into the engine options.
func (c Config) engineOptions() (core.Options, error) {
	alg, err := c.algebra()
	if err != nil {
		return core.Options{}, err
	}
	h, err := order.Parse(c.Order)
	if err != nil {
		return core.Options{}, fmt.Errorf("atpg: %v", err)
	}
	return core.Options{
		Algebra:           alg,
		LocalBacktracks:   c.LocalBacktracks,
		SeqBacktracks:     c.SeqBacktracks,
		MaxFrames:         c.MaxFrames,
		DisableFaultSim:   c.DisableFaultSim,
		DisableValidation: c.DisableValidation,
		StrictInit:        c.StrictInit,
		VariationBudget:   c.VariationBudget,
		Seed:              c.Seed,
		Workers:           c.Workers,
		Order:             h,
		Reference:         c.reference,
		Compact:           c.Compact,
		ConeSets:          c.ConeSets,
		MaxTargets:        c.MaxTargets,
		DeferCredit:       c.Shards > 0,
	}, nil
}
