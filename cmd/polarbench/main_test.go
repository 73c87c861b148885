package main

import (
	"strings"
	"testing"
)

func TestParseOnly(t *testing.T) {
	want, err := parseOnly("")
	if err != nil || len(want) != 0 {
		t.Fatalf(`parseOnly("") = %v, %v; want the empty selection`, want, err)
	}
	want, err = parseOnly("table3, ablation")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 || !want["table3"] || !want["ablation"] {
		t.Fatalf("parseOnly = %v, want table3 and ablation", want)
	}
	for _, name := range experiments {
		if _, err := parseOnly(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, bad := range []string{"nosuch", "seeding", "fig6", "table3,fig6", "table1,"} {
		_, err := parseOnly(bad)
		if err == nil {
			t.Errorf("parseOnly(%q) accepted an unknown experiment", bad)
			continue
		}
		if !strings.Contains(err.Error(), "valid: table1, table2") {
			t.Errorf("parseOnly(%q) error %q does not list the valid experiments", bad, err)
		}
	}
}
