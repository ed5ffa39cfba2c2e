package experiment

import (
	"os"
	"strings"
	"testing"
)

// TestFullGrid computes the whole Figure 5 and Table 1 grid and the
// ablations, and pins their printed form to the committed report_full.txt,
// the stdout of `msreport -experiment all`: that report opens with the
// Figure 5 tables and the summary, then a blank line, then Table 1, another
// blank line, and the five ablation tables.
func TestFullGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid is slow")
	}
	blob, err := os.ReadFile("../../report_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	// The Println between the summary and Table 1 is the newline that
	// starts "\nTable 1:".
	head, tail, ok := strings.Cut(string(blob), "\nTable 1:")
	if !ok {
		t.Fatal("report_full.txt has no Table 1")
	}

	r := NewRunner()
	cells, err := Figure5(r, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fig5 := FormatFigure5(cells) + FormatSummary(Summarize(cells))
	if head != fig5 {
		t.Errorf("Figure 5 and summary differ from report_full.txt:\n%s", fig5)
	}
	rows, err := Table1(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	table1 := FormatTable1(rows)
	ablations, ok := strings.CutPrefix("Table 1:"+tail, table1+"\n")
	if !ok {
		t.Fatalf("Table 1 differs from report_full.txt:\n%s", table1)
	}
	got, err := Ablations(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != ablations {
		t.Errorf("ablations differ from report_full.txt:\n%s", got)
	}
}
