package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// WriteProm renders every registered series as Prometheus text
// exposition (format version 0.0.4): # HELP / # TYPE comments followed
// by the samples, families sorted by name, series sorted by labels.
func (r *Registry) WriteProm(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var lastFamily string
	for _, e := range r.snapshotEntries() {
		if e.name != lastFamily {
			if lastFamily != "" {
				fmt.Fprintln(bw)
			}
			fmt.Fprintf(bw, "# HELP %s %s\n", e.name, e.help)
			fmt.Fprintf(bw, "# TYPE %s %s\n", e.name, e.kind.promType())
			lastFamily = e.name
		}
		switch e.kind {
		case kindGauge:
			fmt.Fprintf(bw, "%s%s %s\n", e.name, e.labelStr, formatFloat(e.gaugeFn()))
		case kindCounter:
			fmt.Fprintf(bw, "%s%s %d\n", e.name, e.labelStr, e.counterFn())
		case kindHist:
			writeHist(bw, e)
		case kindRateWindow:
			for _, span := range r.windowSpans() {
				fmt.Fprintf(bw, "%s%s %s\n", e.name, withLabel(e.labels, L{Key: "window", Value: span.String()}), formatFloat(e.win.Rate(span)))
			}
		case kindValueWindow:
			for _, span := range r.windowSpans() {
				for _, q := range [...]float64{0.50, 0.90, 0.99} {
					fmt.Fprintf(bw, "%s%s %s\n", e.name,
						withLabel(e.labels, L{Key: "window", Value: span.String()}, L{Key: "quantile", Value: formatFloat(q)}),
						formatFloat(e.win.Quantile(span, q)))
				}
			}
		}
	}
	return bw.Flush()
}

// writeHist renders one histogram series: cumulative _bucket samples
// (non-empty buckets only, plus +Inf), then _sum and _count. Skipping
// empty buckets keeps 190 fixed buckets from bloating the exposition;
// cumulative `le` semantics stay exact.
func writeHist(w io.Writer, e *entry) {
	s := e.hist.Snapshot()
	var cum uint64
	for i := range s.Buckets {
		if s.Buckets[i] == 0 {
			continue
		}
		cum += s.Buckets[i]
		if i == NumBuckets-1 {
			continue // rendered by the +Inf bucket below
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", e.name,
			withLabel(e.labels, L{Key: "le", Value: formatFloat(BucketBound(i) * e.histScale)}), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", e.name, withLabel(e.labels, L{Key: "le", Value: "+Inf"}), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", e.name, e.labelStr, formatFloat(s.Sum*e.histScale))
	fmt.Fprintf(w, "%s_count%s %d\n", e.name, e.labelStr, cum)
}

func withLabel(labels []L, extra ...L) string {
	all := make([]L, 0, len(labels)+len(extra))
	all = append(all, labels...)
	all = append(all, extra...)
	return renderLabels(all)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Exposition well-formedness checking. This is the minimal parser the
// obs tests and `briskbench -check-exposition` (the CI gate) run over
// every scrape: it accepts the text-format grammar our writer and
// Prometheus both speak and rejects anything structurally malformed.

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// ValidateExposition checks that data is well-formed Prometheus text
// exposition: every HELP/TYPE comment names a valid family with a
// known type, every sample line parses (name, optional label set with
// proper quoting/escaping, float value, optional timestamp), each
// family's TYPE appears at most once and before its samples, and
// histogram suffixes (_bucket/_sum/_count) belong to a declared
// histogram family. The first violation is returned with its line
// number.
func ValidateExposition(data []byte) error {
	typed := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := validateComment(line, typed); err != nil {
				return fmt.Errorf("line %d: %w: %q", lineNo, err, line)
			}
			continue
		}
		if err := validateSample(line, typed); err != nil {
			return fmt.Errorf("line %d: %w: %q", lineNo, err, line)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return nil
}

func validateComment(line string, typed map[string]string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !promNameRe.MatchString(fields[2]) {
			return fmt.Errorf("malformed HELP comment")
		}
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE comment")
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		if !promNameRe.MatchString(name) {
			return fmt.Errorf("invalid family name in TYPE")
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown type %q", typ)
		}
		if prev, ok := typed[name]; ok && prev != "" {
			return fmt.Errorf("duplicate TYPE for %s", name)
		}
		typed[name] = typ
	}
	return nil
}

func validateSample(line string, typed map[string]string) error {
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i <= 0 {
		return fmt.Errorf("missing metric name or value")
	}
	name := rest[:i]
	if !promNameRe.MatchString(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	rest = rest[i:]
	if rest[0] == '{' {
		var err error
		rest, err = validateLabelSet(rest)
		if err != nil {
			return err
		}
	}
	rest = strings.TrimLeft(rest, " ")
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("expected value [timestamp]")
	}
	if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
		return fmt.Errorf("invalid sample value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return fmt.Errorf("invalid timestamp %q", fields[1])
		}
	}
	// Family membership: the sample's base name must carry a declared
	// TYPE; histogram/summary child suffixes resolve to their parent.
	base := name
	if _, ok := typed[base]; !ok {
		for _, suffix := range [...]string{"_bucket", "_sum", "_count"} {
			parent := strings.TrimSuffix(name, suffix)
			if parent == name {
				continue
			}
			if t, ok := typed[parent]; ok && (t == "histogram" || t == "summary") {
				return nil
			}
		}
		return fmt.Errorf("sample for undeclared family %q (no TYPE before it)", name)
	}
	return nil
}

// validateLabelSet consumes a {k="v",...} prefix and returns the
// remainder of the line.
func validateLabelSet(s string) (string, error) {
	s = s[1:] // consume '{'
	for {
		s = strings.TrimLeft(s, " ")
		if len(s) == 0 {
			return "", fmt.Errorf("unterminated label set")
		}
		if s[0] == '}' {
			return s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return "", fmt.Errorf("malformed label pair")
		}
		if key := strings.TrimSpace(s[:eq]); !promLabelRe.MatchString(key) {
			return "", fmt.Errorf("invalid label name %q", key)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return "", fmt.Errorf("label value must be quoted")
		}
		s = s[1:]
		// Scan the quoted value honouring \\, \" and \n escapes.
		for {
			if len(s) == 0 {
				return "", fmt.Errorf("unterminated label value")
			}
			switch s[0] {
			case '\\':
				if len(s) < 2 || (s[1] != '\\' && s[1] != '"' && s[1] != 'n') {
					return "", fmt.Errorf("invalid escape in label value")
				}
				s = s[2:]
			case '"':
				s = s[1:]
				goto closed
			default:
				s = s[1:]
			}
		}
	closed:
		s = strings.TrimLeft(s, " ")
		if len(s) > 0 && s[0] == ',' {
			s = s[1:]
			continue
		}
		if len(s) > 0 && s[0] == '}' {
			return s[1:], nil
		}
		return "", fmt.Errorf("expected ',' or '}' after label value")
	}
}
