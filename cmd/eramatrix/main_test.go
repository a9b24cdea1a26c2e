package main

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// TestStatus pins the exit status on synthetic matrices: 0 when every row
// is consistent and two-of-three, 1 when a row contradicts its claims, 2
// when a row achieves all three properties — also when a contradiction
// comes with it. Each contradicting row is named.
func TestStatus(t *testing.T) {
	ok := core.MatrixRow{Scheme: "ebr", Easy: true, Wide: true, Consistent: true}
	contradicts := core.MatrixRow{Scheme: "hp", Easy: true, Robust: true}
	allThree := core.MatrixRow{Scheme: "magic", Easy: true, Robust: true, Wide: true, Consistent: true}
	for _, c := range []struct {
		name  string
		rows  []core.MatrixRow
		want  int
		named string
	}{
		{"consistent", []core.MatrixRow{ok, ok}, 0, ""},
		{"inconsistent", []core.MatrixRow{ok, contradicts}, 1, "hp"},
		{"theorem fails", []core.MatrixRow{ok, allThree}, 2, ""},
		{"both", []core.MatrixRow{contradicts, allThree}, 2, "hp"},
	} {
		var w strings.Builder
		got := status(core.Matrix{Rows: c.rows}, &w)
		if got != c.want {
			t.Errorf("%s: status %d, want %d", c.name, got, c.want)
		}
		wantErr := ""
		if c.named != "" {
			wantErr = "eramatrix: " + c.named + ": measurements contradict the declared classes\n"
		}
		if w.String() != wantErr {
			t.Errorf("%s: stderr %q, want %q", c.name, w.String(), wantErr)
		}
	}
}
