package main

import "testing"

func TestRunSmall(t *testing.T) {
	if err := run(300, 1, 1843, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ v, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
	}
	for _, c := range cases {
		if got := clamp(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("clamp(%g) = %g, want %g", c.v, got, c.want)
		}
	}
}
