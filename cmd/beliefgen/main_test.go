package main

import (
	"math"
	"strings"
	"testing"

	"beliefdb/internal/core"
	"beliefdb/internal/val"
)

func TestParseDist(t *testing.T) {
	d, err := parseDist("0.5,0.3,0.2")
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 3 || math.Abs(d[0]-0.5) > 1e-9 {
		t.Errorf("d = %v", d)
	}
	// Inputs that do not sum to 1 are normalized.
	d, err = parseDist("1,1")
	if err != nil || math.Abs(d[0]-0.5) > 1e-9 {
		t.Errorf("d = %v err = %v", d, err)
	}
	if _, err := parseDist("a,b"); err == nil {
		t.Error("bad dist accepted")
	}
}

func TestToBeliefSQL(t *testing.T) {
	st := core.Statement{
		Path: core.Path{2, 1},
		Sign: core.Neg,
		Tuple: core.NewTuple("S",
			val.Str("k1"), val.Str("o'brien"), val.Str("sp"), val.Str("d"), val.Str("l")),
	}
	got := toBeliefSQL(st)
	want := `insert into BELIEF 'u2' BELIEF 'u1' not S values ('k1', 'o''brien', 'sp', 'd', 'l');`
	if got != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
	pos := core.Statement{Path: nil, Sign: core.Pos, Tuple: core.NewTuple("S", val.Str("k"))}
	if s := toBeliefSQL(pos); strings.Contains(s, "BELIEF") || strings.Contains(s, "not") {
		t.Errorf("root insert rendered wrong: %s", s)
	}
}
