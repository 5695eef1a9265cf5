package atpg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"fogbuster/internal/bench"
	"fogbuster/internal/netlist"
	"fogbuster/internal/sim"
)

// Circuit is an immutable parsed circuit, the input to New. The zero
// value is invalid; obtain circuits from ParseBench, ReadBench,
// LoadBench or Benchmark.
//
// A Circuit memoizes derived read-only state — the canonical content
// hash and the simulation topology (the levelized CSR view) — so that
// any number of concurrent Sessions over the same Circuit pay
// levelization once. Sharing a *Circuit between goroutines is safe.
type Circuit struct {
	c *netlist.Circuit

	mu   sync.Mutex
	hash string        // memoized ContentHash
	topo *sim.Topology // memoized simulation topology
	// topoBuilds counts actual topology constructions (white-box
	// observability for the sharing tests).
	topoBuilds int
}

// ParseBench parses ISCAS'89 .bench text. The name labels the circuit in
// results and error messages. Malformed input is reported as an error,
// never a panic.
func ParseBench(name, src string) (*Circuit, error) {
	c, err := netlist.Parse(name, src)
	if err != nil {
		return nil, fmt.Errorf("atpg: %w", err)
	}
	if len(c.Nodes) == 0 {
		return nil, fmt.Errorf("atpg: %s: empty netlist", name)
	}
	return &Circuit{c: c}, nil
}

// ReadBench parses ISCAS'89 .bench text from a reader — netlists
// arriving over the wire, not from disk. The name labels the circuit in
// results and error messages; malformed input is reported as an error,
// never a panic.
func ReadBench(name string, r io.Reader) (*Circuit, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("atpg: %s: %w", name, err)
	}
	return ParseBench(name, string(data))
}

// LoadBench reads and parses a .bench file.
func LoadBench(path string) (*Circuit, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("atpg: %w", err)
	}
	return ParseBench(path, string(data))
}

// Name returns the circuit's name.
func (c *Circuit) Name() string { return c.c.Name }

// Bench renders the circuit in canonical ISCAS'89 .bench form: header
// comment, inputs, outputs, flip-flops, then gates in definition order.
// Parsing the result yields a structurally identical circuit, so two
// circuits with equal Bench text are the same design under the same
// name — the normalization ContentHash keys on.
func (c *Circuit) Bench() string { return c.c.Bench() }

// ContentHash returns the hex SHA-256 of the canonical Bench text — a
// content address for the circuit. Syntactic variation in the source
// (comments, whitespace, line order) washes out: uploads that parse to
// the same named design share a hash, which is what lets a service
// cache parsed circuits and their topologies across clients. The hash
// is computed once and memoized.
func (c *Circuit) ContentHash() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hash == "" {
		sum := sha256.Sum256([]byte(c.c.Bench()))
		c.hash = hex.EncodeToString(sum[:])
	}
	return c.hash
}

// topology returns the memoized shared simulation topology, building it
// on first use. Every Session over this Circuit reuses one Topology (it
// is immutable and already shared by all workers of a run), so
// levelization is paid once per circuit, not per job.
func (c *Circuit) topology() *sim.Topology {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.topo == nil {
		c.topo = sim.NewTopology(c.c)
		c.topoBuilds++
	}
	return c.topo
}

// Faults returns the size of the gate delay fault universe (two faults
// per line).
func (c *Circuit) Faults() int { return 2 * len(c.c.Lines()) }

// Stats summarizes the size of a circuit, including the fault-universe
// quantities of the paper's Table 3.
type Stats struct {
	Name     string `json:"name"`
	PIs      int    `json:"pis"`
	POs      int    `json:"pos"`
	DFFs     int    `json:"dffs"`
	Gates    int    `json:"gates"` // combinational gates (incl. NOT/BUF)
	Stems    int    `json:"stems"`
	Branches int    `json:"branches"`
	Lines    int    `json:"lines"`  // stems + branches
	Faults   int    `json:"faults"` // 2 * lines
	MaxLevel int    `json:"max_level"`
}

// String formats the statistics on one line (the classic circstat shape).
func (s Stats) String() string {
	return fmt.Sprintf("%s: pi=%d po=%d dff=%d gates=%d stems=%d branches=%d lines=%d depth=%d faults=%d",
		s.Name, s.PIs, s.POs, s.DFFs, s.Gates, s.Stems, s.Branches, s.Lines, s.MaxLevel, s.Faults)
}

// Stats computes the circuit's size statistics.
func (c *Circuit) Stats() Stats {
	s := c.c.Stats()
	return Stats{
		Name: s.Name, PIs: s.PIs, POs: s.POs, DFFs: s.DFFs, Gates: s.Gates,
		Stems: s.Stems, Branches: s.Branches, Lines: s.Lines,
		Faults: 2 * s.Lines, MaxLevel: s.MaxLevel,
	}
}

// GatesPerLevel returns the combinational gate count of every level,
// index 0 holding level 1 (primary inputs and state elements sit on
// level 0 and are excluded).
func (c *Circuit) GatesPerLevel() []int {
	t := sim.NewTopology(c.c)
	out := make([]int, t.MaxLevel)
	for l := int32(1); l <= t.MaxLevel; l++ {
		out[l-1] = int(t.LevelOff[l+1] - t.LevelOff[l])
	}
	return out
}

// ConeSizes returns the minimum, median and maximum fanout-cone gate
// count over every stem — the distribution that predicts how much the
// event-driven cone kernels save over full levelized simulation.
func (c *Circuit) ConeSizes() (lo, med, hi int) {
	t := sim.NewTopology(c.c)
	sizes := make([]int, t.NumNodes())
	for i := range sizes {
		sizes[i] = t.ConeGates(netlist.NodeID(i))
	}
	sort.Ints(sizes)
	return sizes[0], sizes[len(sizes)/2], sizes[len(sizes)-1]
}

// ConeMemory reports the cone-set memory footprint of the circuit under
// a representation policy ("", "auto", "dense" or "compressed"): the
// bytes the dense all-stems matrix would occupy (the pre-compression
// representation, O(nodes²/8)) next to the bytes the policy actually
// holds once every stem's set is built. Unknown policies are errors.
func (c *Circuit) ConeMemory(policy string) (dense, actual int64, err error) {
	p, err := sim.ParseConePolicy(policy)
	if err != nil {
		return 0, 0, fmt.Errorf("atpg: %v", err)
	}
	t := sim.NewTopology(c.c)
	t.SetConePolicy(p)
	dense, actual = t.ConeFootprint()
	return dense, actual, nil
}

// PaperRow is one row of the paper's Table 3, for comparison against a
// fresh run of the matching benchmark.
type PaperRow struct {
	Tested     int     `json:"tested"`
	Untestable int     `json:"untestable"`
	Aborted    int     `json:"aborted"`
	Patterns   int     `json:"patterns"`
	Seconds    float64 `json:"seconds"` // the paper's "<1" is recorded as 0.5
}

// BenchmarkInfo describes one built-in Table 3 benchmark.
type BenchmarkInfo struct {
	Name string
	// Exact is true only for s27, which is embedded verbatim; the other
	// circuits are profile-calibrated synthetic reconstructions whose
	// fault universes match the paper.
	Exact bool
	// Paper is the paper's published row for the circuit.
	Paper PaperRow
}

// Benchmarks lists the built-in Table 3 benchmark set in the paper's
// presentation order.
func Benchmarks() []BenchmarkInfo {
	out := make([]BenchmarkInfo, 0, len(bench.Profiles))
	for _, p := range bench.Profiles {
		out = append(out, BenchmarkInfo{
			Name:  p.Name,
			Exact: p.Exact,
			Paper: PaperRow{
				Tested: p.Paper.Tested, Untestable: p.Paper.Untestable,
				Aborted: p.Paper.Aborted, Patterns: p.Paper.Patterns,
				Seconds: p.Paper.Seconds,
			},
		})
	}
	return out
}

// LargeBenchmarks lists the built-in industrial-scale benchmarks beyond
// the paper's Table 3 (the two biggest ISCAS'89 machines, reconstructed
// with the same calibrated synthesizer). The paper never ran them, so
// BenchmarkInfo.Paper is zero; they exist for the scale-out machinery:
// compressed cone sets and budgeted runs via Config.MaxTargets.
// Benchmarks() deliberately excludes them — the Table 3 experiment set
// stays what the paper measured.
func LargeBenchmarks() []BenchmarkInfo {
	out := make([]BenchmarkInfo, 0, len(bench.LargeProfiles))
	for _, p := range bench.LargeProfiles {
		out = append(out, BenchmarkInfo{Name: p.Name, Exact: p.Exact})
	}
	return out
}

// Benchmark returns a built-in circuit by name: any Table 3 benchmark
// (see Benchmarks), any industrial-scale benchmark (see LargeBenchmarks),
// the combinational "c17", or the parameterized didactic families
// "rca<N>" (N-bit ripple-carry adder) and "shift<N>" (N-bit shift
// register). Unknown names are errors.
func Benchmark(name string) (*Circuit, error) {
	switch {
	case name == "c17":
		return &Circuit{c: bench.NewC17()}, nil
	case strings.HasPrefix(name, "rca"):
		bits, err := famBits(name, "rca")
		if err != nil {
			return nil, err
		}
		return &Circuit{c: bench.RippleCarryAdder(bits)}, nil
	case strings.HasPrefix(name, "shift"):
		bits, err := famBits(name, "shift")
		if err != nil {
			return nil, err
		}
		return &Circuit{c: bench.ShiftRegister(bits)}, nil
	}
	if p := bench.ProfileByName(name); p != nil {
		c, err := bench.Synthesize(*p)
		if err != nil {
			return nil, fmt.Errorf("atpg: %w", err)
		}
		return &Circuit{c: c}, nil
	}
	return nil, fmt.Errorf("atpg: unknown benchmark %q", name)
}

// famBits parses the size suffix of a parameterized circuit family name.
func famBits(name, fam string) (int, error) {
	bits, err := strconv.Atoi(name[len(fam):])
	if err != nil || bits < 1 || bits > 64 {
		return 0, fmt.Errorf("atpg: unknown benchmark %q (want %s<1..64>)", name, fam)
	}
	return bits, nil
}
