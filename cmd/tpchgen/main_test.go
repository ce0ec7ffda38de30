package main

import (
	"bytes"
	"strings"
	"testing"
)

// golden is `tpchgen -sf 0.002 -seed 1`. The page counts move if the
// encoded row sizes move, and the device time if the load's writes do.
const golden = `TPC-H SF 0.002 loaded in 21.9914ms (device time)
table              rows    pages        bytes
customer            300        3        49152
lineitem          12006       75      1228800
nation               25        1        16384
orders             3000       17       278528
part                400        3        49152
partsupp           1600        7       114688
region                5        1        16384
supplier             20        1        16384
total                                 1769472
`

func run(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = cli(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestCatalogGolden(t *testing.T) {
	code, out, errs := run("-sf", "0.002", "-seed", "1")
	if code != 0 || errs != "" {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	if out != golden {
		t.Errorf("stdout:\n%s\nwant:\n%s", out, golden)
	}
}

func TestUnknownFlagExits2(t *testing.T) {
	code, out, errs := run("-scale", "1")
	if code != 2 || out != "" || !strings.Contains(errs, "-scale") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2 naming the flag", code, out, errs)
	}
}
