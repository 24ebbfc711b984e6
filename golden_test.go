package tinydir

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden figure fixture")

// goldenScale is a reduced machine whose runs take milliseconds; the
// fixture pins exact figure rows, so any unintended change to the
// protocol, the trace generator or the figure math shows up as a diff.
var goldenScale = Scale{Name: "golden", Cores: 8, Refs: 800}

// goldenShortIDs lead the fixture and are all -short checks; the rest of
// the fixture pins every other figure and ablation, in paper order.
var goldenShortIDs = []string{"4", "6", "11", "families"}

var goldenRestIDs = []string{"1", "2", "3", "5", "7", "8", "9", "10",
	"12", "13", "14", "15", "16", "17", "18", "19", "20", "21", "22",
	"halved", "format", "genlen", "window"}

// TestGoldenFigureRows regenerates figure rows at reduced scale and
// compares them byte-for-byte against the checked-in fixture. The
// simulator is deterministic, so this either matches exactly or
// something real changed. Under -short only the leading figures are
// built and must match the fixture's prefix. Refresh intentionally with:
//
//	go test -run TestGoldenFigureRows -update .
func TestGoldenFigureRows(t *testing.T) {
	ids := goldenShortIDs
	if !testing.Short() {
		ids = append(append([]string{}, goldenShortIDs...), goldenRestIDs...)
	}
	s := NewSuite(goldenScale)
	var buf bytes.Buffer
	for _, id := range ids {
		f, err := s.FigureByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "figures_golden.csv")
	if *update {
		if testing.Short() {
			t.Fatal("-update needs the full fixture: drop -short")
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (regenerate with -update): %v", err)
	}
	if testing.Short() && len(want) > len(got) {
		want = want[:len(got)]
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("figure rows drifted from %s — if intentional, regenerate with -update.\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}
