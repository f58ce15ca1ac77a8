package main

import "testing"

func TestParseRho(t *testing.T) {
	cases := []struct {
		in       string
		num, den int64
		wantErr  bool
	}{
		{"1/2", 1, 2, false},
		{"3/7", 3, 7, false},
		{"1", 1, 1, false},
		{"10", 10, 1, false},
		{"x/2", 0, 0, true},
		{"1/y", 0, 0, true},
		{"", 0, 0, true},
		{"1/0", 0, 0, true},
	}
	for _, c := range cases {
		num, den, err := parseRho(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseRho(%q): want error", c.in)
			}
			continue
		}
		if err != nil || num != c.num || den != c.den {
			t.Errorf("parseRho(%q) = %d/%d, %v; want %d/%d", c.in, num, den, err, c.num, c.den)
		}
	}
}
