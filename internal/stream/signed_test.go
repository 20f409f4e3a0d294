package stream

import (
	"strings"
	"testing"

	"rept/internal/graph"
)

func TestValidateWellFormed(t *testing.T) {
	ok := []graph.Update{
		{U: 1, V: 2},
		{U: 1, V: 2, Del: true},
		{U: 2, V: 1}, // re-insert after delete, reversed orientation
		{U: 5, V: 5}, // self-loops are exempt
	}
	if err := ValidateWellFormed(ok); err != nil {
		t.Fatalf("well-formed stream rejected: %v", err)
	}
	cases := []struct {
		name string
		ups  []graph.Update
		want string
	}{
		{"DeleteAbsent", []graph.Update{{U: 1, V: 2, Del: true}}, "not live"},
		{"DoubleInsert", []graph.Update{{U: 1, V: 2}, {U: 2, V: 1}}, "re-inserts"},
		{"DoubleDelete", []graph.Update{{U: 1, V: 2}, {U: 1, V: 2, Del: true}, {U: 1, V: 2, Del: true}}, "not live"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateWellFormed(tc.ups)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}
