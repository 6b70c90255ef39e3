package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"
)

// TestReportMatchesResults is the RESULTS.md oracle: a report regenerated
// exactly as `paperfig -report` builds it (spec-default frames, a fresh
// Runner) must equal the committed file byte for byte, apart from the
// timestamped "Generated" line. Any change that moves a reported number
// has to ship the regenerated RESULTS.md with it. Skipped under -short.
func TestReportMatchesResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full report regeneration skipped in -short mode")
	}
	want, err := os.ReadFile("../../RESULTS.md")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	if err := r.Prewarm(2); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := r.WriteReport(&got, time.Now()); err != nil {
		t.Fatal(err)
	}

	gotLines := withoutGenerated(got.String())
	wantLines := withoutGenerated(string(want))
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("regenerated report differs from RESULTS.md at line %d (Generated line removed):\n got: %q\nwant: %q\n(rerun `paperfig -report RESULTS.md` if the change is intended)",
				i+1, g, w)
		}
	}
}

// withoutGenerated splits a report into lines, dropping the timestamped
// "Generated ..." line.
func withoutGenerated(report string) []string {
	var out []string
	for _, line := range strings.SplitAfter(report, "\n") {
		if !strings.HasPrefix(line, "Generated ") {
			out = append(out, line)
		}
	}
	return out
}
