package core_test

// External test package: the CSV report tdatpg -csv ships is
// atpg.Result.WriteCSV, and pkg/atpg imports core, so these tests drive
// the engine through that façade.

import (
	"bytes"
	"context"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"

	"fogbuster/pkg/atpg"
)

// runCSV runs the named benchmark under cfg and parses the CSV report
// of its Result.
func runCSV(t *testing.T, name string, cfg atpg.Config) (*atpg.Result, [][]string) {
	t.Helper()
	c, err := atpg.Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	ses, err := atpg.New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ses.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(res.Faults)+1 {
		t.Fatalf("CSV has %d rows, want %d faults + header", len(rows), len(res.Faults))
	}
	return res, rows
}

// TestReportWriters checks the CSV report for shape and row-by-row
// consistency with the Result it was written from.
func TestReportWriters(t *testing.T) {
	res, rows := runCSV(t, "s27", atpg.Config{})
	want := []string{"fault", "status", "vectors", "observe_po", "sequence", "dropped", "follows"}
	if strings.Join(rows[0], ",") != strings.Join(want, ",") {
		t.Fatalf("CSV header = %v, want %v", rows[0], want)
	}
	explicit, tested := 0, 0
	for i, row := range rows[1:] {
		fr := res.Faults[i]
		if row[0] != fr.Fault {
			t.Fatalf("row %d names fault %q, result has %q", i, row[0], fr.Fault)
		}
		wantStatus := string(fr.Status)
		if fr.Status == atpg.StatusTestedBySim {
			wantStatus = "tested(sim)"
		}
		if row[1] != wantStatus {
			t.Errorf("fault %s: CSV status %q, result status %q", row[0], row[1], fr.Status)
		}
		switch row[1] {
		case "tested":
			explicit++
			tested++
			if fr.Seq == nil || row[4] == "" {
				t.Fatalf("tested fault %s lacks a sequence", row[0])
			}
		case "tested(sim)":
			tested++
		}
		if fr.Seq == nil {
			if row[4] != "" {
				t.Errorf("fault %s without a sequence has CSV sequence %q", row[0], row[4])
			}
			continue
		}
		if row[2] != strconv.Itoa(fr.Seq.Len()) || row[4] != strings.Join(fr.Seq.Frames(), "|") {
			t.Errorf("fault %s: CSV vectors %s sequence %q, result has %d %q", row[0], row[2], row[4], fr.Seq.Len(), strings.Join(fr.Seq.Frames(), "|"))
		}
	}
	if explicit == 0 {
		t.Fatal("no explicitly tested fault on s27; the report test has no signal")
	}
	if explicit != res.Explicit || tested != res.Tested {
		t.Fatalf("CSV explicit/tested %d/%d, result %d/%d", explicit, tested, res.Explicit, res.Tested)
	}
}

// TestCSVRoundTripCompacted pins the machine-readable report of a
// compacted run: the dropped and follows columns written for a Result
// with dropped and spliced sequences must parse back to exactly the
// Result's drop set and Follows markers.
func TestCSVRoundTripCompacted(t *testing.T) {
	res, rows := runCSV(t, "s386", atpg.Config{Compact: true})
	st := res.Compaction
	if st == nil || !st.Complete {
		t.Fatalf("compaction absent or refused despite Config.Compact: %+v", st)
	}
	if st.Dropped == 0 {
		t.Fatal("no dropped sequences on s386; round-trip test has no signal")
	}
	if st.Splices == 0 {
		t.Log("no splices accepted on s386; follows round-trip covers the empty case only")
	}

	col := make(map[string]int, len(rows[0]))
	for i, name := range rows[0] {
		col[name] = i
	}
	for _, name := range []string{"fault", "dropped", "follows"} {
		if _, ok := col[name]; !ok {
			t.Fatalf("CSV header misses %q: %v", name, rows[0])
		}
	}

	gotDropped := make(map[string]bool)
	gotFollows := make(map[string]string)
	for _, rec := range rows[1:] {
		fault := rec[col["fault"]]
		if d := rec[col["dropped"]]; d != "" {
			v, err := strconv.ParseBool(d)
			if err != nil {
				t.Fatalf("fault %s: unparsable dropped column %q", fault, d)
			}
			if v {
				gotDropped[fault] = true
			}
		}
		if f := rec[col["follows"]]; f != "" {
			gotFollows[fault] = f
		}
	}

	wantDropped, splices := 0, 0
	for _, fr := range res.Faults {
		if fr.Seq == nil {
			continue
		}
		if fr.Seq.Dropped {
			wantDropped++
			if !gotDropped[fr.Fault] {
				t.Errorf("dropped sequence %s not marked in the CSV", fr.Fault)
			}
		} else if gotDropped[fr.Fault] {
			t.Errorf("kept sequence %s marked dropped in the CSV", fr.Fault)
		}
		if fr.Seq.Follows != "" {
			splices++
			if got := gotFollows[fr.Fault]; got != fr.Seq.Follows {
				t.Errorf("spliced sequence %s: CSV follows %q, want %q", fr.Fault, got, fr.Seq.Follows)
			}
		} else if _, ok := gotFollows[fr.Fault]; ok {
			t.Errorf("unspliced sequence %s has a follows marker in the CSV", fr.Fault)
		}
	}
	if len(gotDropped) != wantDropped {
		t.Errorf("CSV marks %d dropped sequences, result has %d", len(gotDropped), wantDropped)
	}
	if len(gotFollows) != splices {
		t.Errorf("CSV marks %d spliced sequences, result has %d", len(gotFollows), splices)
	}
	if splices != st.Splices {
		t.Errorf("result carries %d Follows markers, stats report %d splices", splices, st.Splices)
	}
	if st.Dropped != wantDropped {
		t.Errorf("stats report %d drops, result carries %d", st.Dropped, wantDropped)
	}
}
