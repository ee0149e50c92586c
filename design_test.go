package hybridsel

import (
	"bufio"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDesignMetricsTable holds DESIGN.md §17 to what the daemon and the
// client declare: the families its series table names, each under its
// row's prefix with its type, are exactly those of the two
// metrics_families.txt goldens, and its "(server: N families, client: M)"
// sentence counts the goldens' lines.
func TestDesignMetricsTable(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	design := string(data)
	start := strings.Index(design, "## 17.")
	if start < 0 {
		t.Fatal("DESIGN.md has no §17")
	}
	section := design[start:]

	types := map[string]string{"c": "counter", "g": "gauge", "h": "histogram"}
	family := regexp.MustCompile("`([a-z_]+)(?:\\{[^}`]*\\})?` ([cgh])\\b")
	var documented []string
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 5 || !strings.HasPrefix(strings.TrimSpace(cells[2]), "`hybridsel") {
			continue // not a row of the series table
		}
		prefix := strings.Trim(strings.TrimSpace(cells[2]), "`")
		for _, m := range family.FindAllStringSubmatch(cells[3], -1) {
			documented = append(documented, prefix+m[1]+" "+types[m[2]])
		}
	}

	var declared []string
	counts := map[string]int{}
	for _, side := range []string{"server", "client"} {
		f, err := os.Open("internal/" + side + "/testdata/golden/metrics_families.txt")
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if fields := strings.Fields(sc.Text()); len(fields) >= 2 {
				declared = append(declared, fields[0]+" "+fields[1])
				counts[side]++
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}

	slices.Sort(documented)
	slices.Sort(declared)
	for _, d := range documented {
		if _, found := slices.BinarySearch(declared, d); !found {
			t.Errorf("§17 documents %s, which no golden declares", d)
		}
	}
	for _, d := range declared {
		if _, found := slices.BinarySearch(documented, d); !found {
			t.Errorf("a golden declares %s, which §17's table does not document", d)
		}
	}
	if len(documented) != len(slices.Compact(slices.Clone(documented))) {
		t.Errorf("§17's table documents a family twice: %v", documented)
	}
	want := fmt.Sprintf("(server: %d families, client: %d)", counts["server"], counts["client"])
	if !strings.Contains(strings.Join(strings.Fields(section), " "), want) {
		t.Errorf("§17 does not say %q", want)
	}
}
