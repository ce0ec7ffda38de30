package main

import (
	"strings"
	"testing"
)

func TestCheckNeedle(t *testing.T) {
	for _, tc := range []struct {
		needle string
		ok     bool
	}{
		{"", false}, // used to reach match.NewHorspool and panic the simulation
		{"x", true},
		{strings.Repeat("k", 16), true},
		{strings.Repeat("k", 17), false},
	} {
		if err := checkNeedle(tc.needle); (err == nil) != tc.ok {
			t.Errorf("checkNeedle(%q) = %v, want ok=%v", tc.needle, err, tc.ok)
		}
	}
}
