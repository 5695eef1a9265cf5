package core

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"fogbuster/internal/netlist"
	"fogbuster/internal/sim"
)

// Row returns the summary as one Table 3 row. A compacted summary
// additionally reports the post-compaction vector count.
func (s *Summary) Row() string {
	row := fmt.Sprintf("%s: tested=%d untestable=%d aborted=%d patterns=%d time=%v",
		s.Circuit, s.Tested, s.Untestable, s.Aborted, s.Patterns, s.Runtime)
	if s.Order != "" && s.Order != "natural" {
		row += fmt.Sprintf(" order=%s", s.Order)
	}
	if s.Compaction != nil {
		row += fmt.Sprintf(" compacted=%d", s.Compaction.PatternsAfter)
	}
	return row
}

// WriteCSV emits the per-fault classification and the generated sequences
// in a machine-readable form: one row per fault with the flattened vector
// sequence (X for don't-cares, | between frames).
func (s *Summary) WriteCSV(w io.Writer, c *netlist.Circuit) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{"fault", "status", "vectors", "observe_po", "sequence", "dropped", "follows"}); err != nil {
		return err
	}
	for _, r := range s.Results {
		rec := []string{r.Fault.Name(c), r.Status.String(), "", "", "", "", ""}
		if r.Seq != nil {
			rec[2] = strconv.Itoa(r.Seq.Len())
			rec[3] = strconv.Itoa(r.Seq.ObservePO)
			var frames []string
			for _, vec := range r.Seq.Vectors() {
				frames = append(frames, vecString(vec))
			}
			rec[4] = strings.Join(frames, "|")
			rec[5] = strconv.FormatBool(r.Seq.Dropped)
			if r.Seq.Follows != nil {
				rec[6] = r.Seq.Follows.Name(c)
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func vecString(v []sim.V3) string {
	var sb strings.Builder
	for _, b := range v {
		sb.WriteString(b.String())
	}
	return sb.String()
}
