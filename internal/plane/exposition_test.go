package plane

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseExposition validates Prometheus text exposition: every non-comment
// line must be `name{labels} value`, names in the legal charset, label
// values quoted, values parseable floats. It returns the family and
// sample counts — the profile-smoke gate asserts both are positive.
func ParseExposition(r io.Reader) (families, samples int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(rest) != 2 || !validMetricName(rest[0]) {
				return 0, 0, fmt.Errorf("plane: exposition line %d: bad TYPE line %q", lineNo, line)
			}
			switch rest[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return 0, 0, fmt.Errorf("plane: exposition line %d: unknown type %q", lineNo, rest[1])
			}
			families++
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comments (HELP etc.)
		}
		name := line
		rest := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return 0, 0, fmt.Errorf("plane: exposition line %d: unbalanced braces", lineNo)
			}
			rest = strings.TrimSpace(line[j+1:])
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			name = line[:i]
			rest = strings.TrimSpace(line[i+1:])
		}
		if !validMetricName(name) {
			return 0, 0, fmt.Errorf("plane: exposition line %d: bad metric name %q", lineNo, name)
		}
		val := rest
		if i := strings.IndexByte(rest, ' '); i >= 0 {
			val = rest[:i] // optional trailing timestamp
		}
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			return 0, 0, fmt.Errorf("plane: exposition line %d: bad value %q", lineNo, val)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	return families, samples, nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}
