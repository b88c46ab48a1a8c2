package main

import (
	"math"
	"testing"
)

func TestParseHostTicks(t *testing.T) {
	stat := "cpu  100 5 20 900 3 1 2 40 0 0\ncpu0 50 2 10 450 1 0 1 20 0 0\n"
	if got, want := parseHostTicks(stat), (hostTicks{busy: 100 + 5 + 20 + 1 + 2, steal: 40}); got != want {
		t.Errorf("parseHostTicks = %+v, want %+v", got, want)
	}
	for _, bad := range []string{"", "intr 1 2 3", "cpu 1 2 3"} {
		if got := parseHostTicks(bad); got != (hostTicks{}) {
			t.Errorf("parseHostTicks(%q) = %+v, want zeros", bad, got)
		}
	}
}

func TestStolenShare(t *testing.T) {
	from := hostTicks{busy: 1000, steal: 10}
	for _, tc := range []struct {
		to   hostTicks
		want float64
	}{
		{hostTicks{busy: 1300, steal: 110}, 0.25}, // 100 of 400 wanted ticks stolen
		{hostTicks{busy: 1300, steal: 10}, 0},     // nothing stolen
		{hostTicks{}, 0},                          // no /proc/stat: nothing counts as stolen
	} {
		if got := stolenShare(from, tc.to); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("stolenShare(%+v, %+v) = %v, want %v", from, tc.to, got, tc.want)
		}
	}
}
