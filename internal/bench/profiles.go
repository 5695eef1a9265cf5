package bench

// Style selects the structural class of a synthetic circuit, matching the
// known character of the original ISCAS'89 benchmark it stands in for.
type Style uint8

const (
	// Mixed is general random control/datapath logic with feedback.
	Mixed Style = iota
	// Feedback builds a synchronous counter core (toggle cells with a
	// carry chain and a synchronous clear) plus random decode logic; the
	// s208/s420/s838 family are counters of exactly this kind.
	Feedback
	// Pipeline builds two combinational stages separated by the state
	// register with no feedback, matching the nearly-combinational
	// s1196/s1238 family.
	Pipeline
)

func (s Style) String() string {
	switch s {
	case Feedback:
		return "feedback"
	case Pipeline:
		return "pipeline"
	default:
		return "mixed"
	}
}

// PaperRow holds one row of the paper's Table 3 for comparison.
type PaperRow struct {
	Tested     int
	Untestable int
	Aborted    int
	Patterns   int
	Seconds    float64 // "<1" is recorded as 0.5
}

// Faults returns the total fault count of the row.
func (r PaperRow) Faults() int { return r.Tested + r.Untestable + r.Aborted }

// Profile describes one Table 3 circuit: its published size profile and
// the paper's measured row. For all circuits except s27 the netlist is a
// deterministic synthetic reconstruction calibrated so that the line count
// (and therefore the fault universe, 2 faults per line) matches the paper.
type Profile struct {
	Name        string
	Exact       bool // true only for s27, which is embedded verbatim
	PIs         int
	POs         int
	FFs         int
	Gates       int // published gate count (approximate for synthesis)
	TargetLines int // paper faults / 2
	Style       Style
	Seed        int64
	Paper       PaperRow
}

// Profiles lists the paper's Table 3 circuits in presentation order.
// PI/PO/FF/gate counts are the published ISCAS'89 statistics; TargetLines
// is derived from the paper's fault totals (tested+untestable+aborted)/2.
var Profiles = []Profile{
	{Name: "s27", Exact: true, PIs: 4, POs: 1, FFs: 3, Gates: 10, TargetLines: 25,
		Style: Mixed, Seed: 27, Paper: PaperRow{39, 11, 0, 40, 0.5}},
	{Name: "s208", PIs: 10, POs: 1, FFs: 8, Gates: 96, TargetLines: 185,
		Style: Feedback, Seed: 208, Paper: PaperRow{112, 242, 16, 163, 90}},
	{Name: "s298", PIs: 3, POs: 6, FFs: 14, Gates: 119, TargetLines: 267,
		Style: Mixed, Seed: 298, Paper: PaperRow{164, 260, 110, 1148, 452}},
	{Name: "s344", PIs: 9, POs: 11, FFs: 15, Gates: 160, TargetLines: 306,
		Style: Mixed, Seed: 344, Paper: PaperRow{313, 199, 100, 494, 403}},
	{Name: "s349", PIs: 9, POs: 11, FFs: 15, Gates: 161, TargetLines: 312,
		Style: Mixed, Seed: 349, Paper: PaperRow{312, 211, 101, 500, 394}},
	{Name: "s386", PIs: 7, POs: 7, FFs: 6, Gates: 159, TargetLines: 372,
		Style: Mixed, Seed: 386, Paper: PaperRow{332, 335, 77, 390, 80}},
	{Name: "s420", PIs: 18, POs: 1, FFs: 16, Gates: 218, TargetLines: 370,
		Style: Feedback, Seed: 420, Paper: PaperRow{124, 584, 32, 166, 169}},
	{Name: "s641", PIs: 35, POs: 24, FFs: 19, Gates: 379, TargetLines: 577,
		Style: Pipeline, Seed: 641, Paper: PaperRow{807, 136, 211, 560, 310}},
	{Name: "s713", PIs: 35, POs: 23, FFs: 19, Gates: 393, TargetLines: 627,
		Style: Mixed, Seed: 713, Paper: PaperRow{427, 395, 432, 292, 795}},
	{Name: "s838", PIs: 34, POs: 1, FFs: 32, Gates: 446, TargetLines: 737,
		Style: Feedback, Seed: 838, Paper: PaperRow{113, 1277, 84, 152, 522}},
	{Name: "s1196", PIs: 14, POs: 14, FFs: 18, Gates: 529, TargetLines: 1098,
		Style: Pipeline, Seed: 1196, Paper: PaperRow{2114, 69, 13, 1533, 243}},
	{Name: "s1238", PIs: 14, POs: 14, FFs: 18, Gates: 508, TargetLines: 1165,
		Style: Pipeline, Seed: 1238, Paper: PaperRow{2181, 136, 13, 1524, 301}},
}

// LargeProfiles lists industrial-scale circuits beyond the paper's
// Table 3: the two biggest ISCAS'89 machines, reconstructed with the same
// calibrated synthesizer. The paper never ran them (its prototype was
// reported on circuits up to ~500 gates), so there is no PaperRow; they
// exist to exercise the scale-out machinery — memory-lean cone sets and
// budgeted runs — at realistic node counts.
// They are deliberately NOT part of Profiles: the Table 3 experiments and
// integration tests iterate that slice, and a full ATPG run over ~20k
// gates is a benchmark workload, not a test.
var LargeProfiles = []Profile{
	{Name: "s15850", PIs: 77, POs: 150, FFs: 534, Gates: 9772, TargetLines: 15850,
		Style: Mixed, Seed: 15850},
	{Name: "s38584", PIs: 38, POs: 304, FFs: 1426, Gates: 19253, TargetLines: 38584,
		Style: Mixed, Seed: 38584},
}

// ProfileByName returns the profile with the given name — Table 3 and
// large-scale profiles both resolve — or nil.
func ProfileByName(name string) *Profile {
	for i := range Profiles {
		if Profiles[i].Name == name {
			return &Profiles[i]
		}
	}
	for i := range LargeProfiles {
		if LargeProfiles[i].Name == name {
			return &LargeProfiles[i]
		}
	}
	return nil
}
