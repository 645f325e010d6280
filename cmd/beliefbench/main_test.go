package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestDefaultRunPrintsTheFourArtefacts(t *testing.T) {
	var out, errw bytes.Buffer
	// -n scales every artefact down so the run stays well under a second.
	if err := run([]string{"-n", "80"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 1:", "Figure 6:", "Table 2:", "Space bounds"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

func TestSelectionPrintsOnlyThatArtefact(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-bounds", "-n", "60"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Space bounds") {
		t.Errorf("text rendering missing:\n%s", out.String())
	}
	if strings.Contains(out.String(), "Table 1:") {
		t.Errorf("-bounds also printed Table 1:\n%s", out.String())
	}
}

// The system harnesses and the JSON trajectory went to benchmark/; their
// flags must not linger as silent no-ops.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-json"}, {"-durability"}, {"-batch", "8"}, {"-serve", "4"}, {"-replicas", "2"},
		{"-shards", "2"}, {"-mixed"}, {"-ranges"}, {"-chaos"}, {"-definitely-not-a-flag"}, {"stray"},
	} {
		var out, errw bytes.Buffer
		if err := run(args, &out, &errw); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
