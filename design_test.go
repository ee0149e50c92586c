package hybridsel

import (
	"bufio"
	"fmt"
	"maps"
	"os"
	"regexp"
	"slices"
	"strconv"
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

// TestExperimentsMatchTranscript holds EXPERIMENTS.md's reproduced tables
// to the committed transcript of `offloadsim -exp all`: every number a
// checked cell prints must be the transcript's at the precision printed,
// and every kernel list must name exactly the kernels the transcript
// does. A row these checks do not know fails, so a new row comes with its
// check.
func TestExperimentsMatchTranscript(t *testing.T) {
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	tr := readTranscript(t, "internal/experiments/testdata/offloadsim_all.txt")
	modes := []string{"test", "benchmark"}

	// Table I: the decision flips, and the generational gains quoted.
	table1 := tr.rows("Table I:", "")
	rowOf := map[string][]string{} // kernel/mode → its row
	ratio := map[string]float64{}  // kernel/mode → P9+V100 over P8+K80
	kernels, flips := map[string]bool{}, map[string]bool{}
	nflips := 0
	for _, r := range table1 {
		rowOf[r[0]+"/"+r[1]] = r
		ratio[r[0]+"/"+r[1]] = num(t, r[3]) / num(t, r[2])
		kernels[r[0]] = true
		if len(r) > 4 {
			flips[r[0]] = true
			nflips++
		}
	}
	_, claims := mdTable(t, doc, "Table I")
	if len(claims) != 3 {
		t.Fatalf("Table I's claims table has %d rows, want flips, magnitude and bandwidth", len(claims))
	}
	measured := claims[0][2]
	if m := regexp.MustCompile(`(\d+) of (\d+) kernel/mode decisions flip`).FindStringSubmatch(measured); m == nil ||
		m[1] != fmt.Sprint(nflips) || m[2] != fmt.Sprint(len(table1)) {
		t.Errorf("Table I: %q, transcript: %d of %d kernel/mode decisions flip", measured, nflips, len(table1))
	}
	if got := kernelsIn(measured, kernels); !maps.Equal(got, flips) {
		t.Errorf("Table I names %v as flipping, transcript %v", sorted(got), sorted(flips))
	}
	gains := 0
	for _, m := range regexp.MustCompile(`([a-zA-Z0-9_]+) (test|benchmark): ([\d.]+)× → ([\d.]+)× \(([\d.]+)×\)`).FindAllStringSubmatch(claims[1][2], -1) {
		key := strings.ToLower(m[1]) + "/" + m[2]
		r := rowOf[key]
		if r == nil || !printedAs(m[3], num(t, r[2])) || !printedAs(m[4], num(t, r[3])) || !printedAs(m[5], ratio[key]) {
			t.Errorf("Table I quotes %s, transcript row %v", m[0], r)
		}
		gains++
	}
	for _, m := range regexp.MustCompile(`([a-z0-9_]+)(?: improves)? ([\d.]+)–([\d.]+)×`).FindAllStringSubmatch(claims[2][2], -1) {
		lo, hi := min(ratio[m[1]+"/test"], ratio[m[1]+"/benchmark"]), max(ratio[m[1]+"/test"], ratio[m[1]+"/benchmark"])
		if !printedAs(m[2], lo) || !printedAs(m[3], hi) {
			t.Errorf("Table I quotes %s, transcript gains %.2f–%.2f×", m[0], lo, hi)
		}
		gains++
	}
	if gains == 0 {
		t.Error("Table I quotes no generational gain the test can read")
	}

	// Figures 6 and 7: accuracy and the wrong calls, test mode then
	// benchmark mode.
	_, fig67 := mdTable(t, doc, "Figures 6 & 7")
	for i, mode := range modes {
		fig, title := fmt.Sprintf("Fig. %d", 6+i), fmt.Sprintf("Figure %d:", 6+i)
		rows := tr.rows(title, "")
		summary := strings.Fields(tr.line(title, "", "correlation "))
		wrong := map[string][]string{}
		for _, r := range rows {
			if r[4] == "WRONG" {
				wrong[r[1]] = r
			}
		}
		for _, row := range fig67 {
			cell, label := row[1+i], strings.ToLower(row[0])
			switch {
			case label == "pearson correlation":
				check(t, fig+" correlation", cell, num(t, summary[1]))
			case label == "mape":
				check(t, fig+" MAPE", cell, num(t, summary[3]))
			case label == "correct offload calls":
				check(t, fig+" correct calls", cell, num(t, summary[7]))
			case strings.HasPrefix(label, "wrong calls"):
				checkWrongCalls(t, fig+" ("+mode+" mode)", cell, kernels, wrong)
			default:
				t.Errorf("Figs. 6/7 row %q is not checked against the transcript", row[0])
			}
		}
	}
	if len(fig67) != 4 {
		t.Errorf("Figs. 6/7 table has %d rows, want correlation, MAPE, correct and wrong calls", len(fig67))
	}

	// Figure 8: the suite geomeans and their ratios.
	head8, fig8 := mdTable(t, doc, "Figure 8")
	for _, mode := range modes {
		heading := map[string]string{"test": "Measured (test)", "benchmark": "Measured (bench)"}[mode]
		col := slices.Index(head8, heading)
		if col < 0 {
			t.Fatalf("Fig. 8 table has no %q column: %v", heading, head8)
		}
		geo := func(policy string) float64 {
			f := strings.Fields(tr.line("Figure 8:", mode+" mode", policy+" (geomean)"))
			return num(t, f[len(f)-1])
		}
		always, guided, oracle := geo("always-offload"), geo("model-guided"), geo("oracle")
		for _, row := range fig8 {
			var want float64
			switch label := strings.ToLower(row[0]); {
			case strings.HasPrefix(label, "always offload"):
				want = always
			case strings.HasPrefix(label, "model-guided"):
				want = guided
			case strings.HasPrefix(label, "oracle"):
				want = oracle
			case strings.HasPrefix(label, "guided / always"):
				want = guided / always
			case strings.HasPrefix(label, "guided / oracle"):
				want = guided / oracle * 100
			default:
				t.Errorf("Fig. 8 row %q is not checked against the transcript", row[0])
				continue
			}
			check(t, fmt.Sprintf("Fig. 8 %s (%s)", row[0], mode), row[col], want)
		}
	}

	// The four ablations: one document row per transcript variant.
	_, abl := mdTable(t, doc, "Ablations")
	variants := map[string][]string{}
	for _, r := range tr.rows("Ablation:", "") {
		variants[r[0]] = r
	}
	seen := map[string]bool{}
	for _, row := range abl {
		m := regexp.MustCompile("`([a-z0-9./%-]+)`").FindStringSubmatch(row[0])
		if m == nil || variants[m[1]] == nil {
			t.Errorf("ablation row %q names no transcript variant", row[0])
			continue
		}
		seen[m[1]] = true
		v := variants[m[1]]
		for j, what := range []string{"correct calls", "correlation", "MAPE"} {
			check(t, "ablation "+m[1]+" "+what, row[1+j], num(t, v[1+j]))
		}
	}
	if len(seen) != len(variants) {
		t.Errorf("ablations table covers %d of the transcript's %d variants", len(seen), len(variants))
	}

	// Shadow-audit calibration and the residual learner, one row per mode.
	_, auditRows := mdTable(t, doc, "Shadow-audit calibration")
	learnHead, learnRows := mdTable(t, doc, "Residual learner")
	if len(auditRows) != len(modes) || len(learnRows) != len(modes) {
		t.Fatalf("audit and learner tables have %d and %d rows, want one per mode", len(auditRows), len(learnRows))
	}
	arrow := regexp.MustCompile(`([\d.]+)(?: s|×)? → ([\d.]+)`)
	calibrated := regexp.MustCompile(`wrong in round (\d+) only, flip at round (\d+)`)
	for i, mode := range modes {
		row := auditRows[i]
		if row[0] != mode {
			t.Fatalf("audit row %d is %q, want %s", i, row[0], mode)
		}
		title := "Shadow-audit calibration:"
		var wrongEvery []string
		for _, r := range tr.rows(title, mode+" mode") {
			if n, d, _ := strings.Cut(r[1], "/"); n == d {
				wrongEvery = append(wrongEvery, r[0])
				if m := calibrated.FindStringSubmatch(row[2]); m == nil ||
					!strings.HasPrefix(r[2], m[1]+"/") || r[7] != m[2] {
					t.Errorf("audit %s: %s calibrated is %q, transcript wrong(cal) %s flip@ %s", mode, r[0], row[2], r[2], r[7])
				}
			}
		}
		if got, want := row[1], fmt.Sprintf("%d (%s)", len(wrongEvery), strings.Join(wrongEvery, ", ")); got != want {
			t.Errorf("audit %s: wrong every round %q, transcript %q", mode, got, want)
		}
		regret := strings.Fields(tr.line(title, mode+" mode", "total regret:"))
		checkArrow(t, "audit "+mode+" regret", arrow, row[3], num(t, regret[2]), num(t, regret[4]))
		geo := func(label string) float64 {
			f := strings.Fields(tr.line(title, mode+" mode", label))
			return num(t, f[len(f)-1])
		}
		checkArrow(t, "audit "+mode+" geomean", arrow, row[4], geo("model-guided (geomean)"), geo("with calibration (geomean)"))

		row = learnRows[i]
		title = "Residual learner vs EWMA:"
		var ewma, learned, launches float64
		for _, r := range tr.rows(title, mode+" mode") {
			n, d, _ := strings.Cut(r[1], "/")
			ewma += num(t, n)
			launches += num(t, d)
			n, _, _ = strings.Cut(r[2], "/")
			learned += num(t, n)
		}
		if row[0] != mode {
			t.Fatalf("learner row %d is %q, want %s", i, row[0], mode)
		}
		checkArrow(t, "learner "+mode+" wrong launches", arrow, row[1], ewma, learned)
		regret = strings.Fields(tr.line(title, mode+" mode", "total regret:"))
		checkArrow(t, "learner "+mode+" regret", arrow, row[2], num(t, regret[2]), num(t, regret[4]))
		// "learner: ... verdicts 190 learned / 2 analytical"
		f := strings.Fields(tr.line(title, mode+" mode", "learner:"))
		v := num(t, f[len(f)-5])
		want := fmt.Sprintf("%.0f of %.0f", v, v+num(t, f[len(f)-2]))
		if row[3] != want {
			t.Errorf("learner %s: learned verdicts %q, transcript %q", mode, row[3], want)
		}
		if !strings.Contains(learnHead[1], fmt.Sprintf("(of %.0f)", launches)) {
			t.Errorf("learner table header %q, transcript %.0f launches", learnHead[1], launches)
		}
	}
}

// transcript is offloadsim's output split into its titled blocks.
type transcript struct{ blocks [][]string } // each: title, then its lines

func readTranscript(t *testing.T, path string) transcript {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	title := regexp.MustCompile(`^(Table I+|Figure \d|Shadow-audit calibration|Residual learner vs EWMA|Ablation):`)
	var tr transcript
	for _, line := range strings.Split(string(data), "\n") {
		if title.MatchString(line) {
			tr.blocks = append(tr.blocks, nil)
		}
		if n := len(tr.blocks); n > 0 {
			tr.blocks[n-1] = append(tr.blocks[n-1], line)
		}
	}
	return tr
}

// rows returns the table rows, split into fields, of every block whose
// title starts with prefix and contains mode.
func (tr transcript) rows(prefix, mode string) [][]string {
	var rows [][]string
	for _, b := range tr.blocks {
		if !strings.HasPrefix(b[0], prefix) || !strings.Contains(b[0], mode) {
			continue
		}
		in := false
		for _, line := range b[1:] {
			switch {
			case strings.HasPrefix(line, "--"):
				in = true
			case strings.TrimSpace(line) == "":
				in = false
			case in:
				rows = append(rows, strings.Fields(line))
			}
		}
	}
	return rows
}

// line returns the first line starting with lead in the first block whose
// title starts with prefix and contains mode.
func (tr transcript) line(prefix, mode, lead string) string {
	for _, b := range tr.blocks {
		if strings.HasPrefix(b[0], prefix) && strings.Contains(b[0], mode) {
			for _, line := range b[1:] {
				if strings.HasPrefix(line, lead) {
					return line
				}
			}
		}
	}
	return ""
}

// kernelsIn returns the kernels s names.
func kernelsIn(s string, kernels map[string]bool) map[string]bool {
	named := map[string]bool{}
	for _, w := range regexp.MustCompile(`[a-z0-9_]+`).FindAllString(s, -1) {
		if kernels[w] {
			named[w] = true
		}
	}
	return named
}

func sorted(set map[string]bool) []string {
	var s []string
	for k := range set {
		s = append(s, k)
	}
	slices.Sort(s)
	return s
}

// mdTable returns the header and body cells, bold marks dropped, of the
// first table under the "## <heading>" section of doc.
func mdTable(t *testing.T, doc, heading string) (head []string, rows [][]string) {
	t.Helper()
	start := strings.Index(doc, "\n## "+heading)
	if start < 0 {
		t.Fatalf("EXPERIMENTS.md has no %q section", heading)
	}
	section := doc[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if head != nil {
				break
			}
			continue
		}
		if strings.HasPrefix(line, "|---") {
			continue
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
			cells = append(cells, strings.TrimSpace(strings.ReplaceAll(c, "**", "")))
		}
		if head == nil {
			head = cells
		} else {
			rows = append(rows, cells)
		}
	}
	if len(rows) == 0 {
		t.Fatalf("EXPERIMENTS.md %q section has no table", heading)
	}
	return head, rows
}

// num parses a transcript number, its unit suffix (x, %, s) dropped.
func num(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimRight(s, "x%s×"), 64)
	if err != nil {
		t.Fatalf("transcript number %q: %v", s, err)
	}
	return v
}

// printedAs reports whether s, a number with an optional unit (×, %, s),
// is v rounded to the decimals s prints.
func printedAs(s string, v float64) bool {
	s = strings.TrimSpace(strings.TrimRight(strings.TrimSpace(s), "x%s×"))
	dec := 0
	if i := strings.IndexByte(s, '.'); i >= 0 {
		dec = len(s) - i - 1
	}
	return fmt.Sprintf("%.*f", dec, v) == s
}

func check(t *testing.T, what, cell string, want float64) {
	t.Helper()
	if !printedAs(cell, want) {
		t.Errorf("%s: EXPERIMENTS.md says %q, transcript %g", what, cell, want)
	}
}

// checkArrow checks a "before → after" cell.
func checkArrow(t *testing.T, what string, arrow *regexp.Regexp, cell string, before, after float64) {
	t.Helper()
	m := arrow.FindStringSubmatch(cell)
	if m == nil || !printedAs(m[1], before) || !printedAs(m[2], after) {
		t.Errorf("%s: EXPERIMENTS.md says %q, transcript %g → %g", what, cell, before, after)
	}
}

// checkWrongCalls checks a wrong-call list: it must name exactly the
// transcript's wrong calls, and each "(A× vs P×)" gives the actual and
// predicted speedup of every kernel named since the previous one.
func checkWrongCalls(t *testing.T, what, cell string, kernels map[string]bool, wrong map[string][]string) {
	t.Helper()
	var pending []string
	named := map[string]bool{}
	tok := regexp.MustCompile(`\(([\d.]+)× vs ([\d.]+)×\)|[a-z0-9_]+`)
	for _, m := range tok.FindAllStringSubmatch(cell, -1) {
		switch {
		case m[1] != "":
			for _, k := range pending {
				if r := wrong[k]; r != nil && (!printedAs(m[1], num(t, r[2])) || !printedAs(m[2], num(t, r[3]))) {
					t.Errorf("%s: %s %s, transcript actual %s predicted %s", what, k, m[0], r[2], r[3])
				}
			}
			pending = nil
		case kernels[m[0]]:
			named[m[0]] = true
			pending = append(pending, m[0])
		}
	}
	want := map[string]bool{}
	for k := range wrong {
		want[k] = true
	}
	if !maps.Equal(named, want) {
		t.Errorf("%s: wrong calls %v, transcript %v", what, sorted(named), sorted(want))
	}
}
