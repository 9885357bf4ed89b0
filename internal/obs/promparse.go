package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ParsePrometheus is the scrape side of WritePrometheus: it reads a
// text exposition (version 0.0.4) back into Metric samples, including
// reassembling _bucket/_sum/_count series into histogram snapshots with
// per-bucket (de-cumulated) counts. It is what lets stingtop poll every
// node's existing /metrics endpoint and merge the results with no new
// wire protocol.
//
// HELP text comes back as each sample's Help, so a parsed exposition
// renders again unchanged but for family order (histograms come last).
// The parser is deliberately tolerant: unknown comment lines are skipped,
// families without a # TYPE default to untyped gauges, and a malformed
// line fails the whole parse with its line number (a scrape of a healthy
// node should never be partially wrong).
func ParsePrometheus(r io.Reader) ([]Metric, error) {
	types := make(map[string]MetricKind)
	helps := make(map[string]string)
	var scalars []Metric
	hists := make(map[string]*histAccum) // family+labels (sans le)
	var histOrder []string

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			helps[name] = helpUnescaper.Replace(help)
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				switch fields[3] {
				case "counter":
					types[fields[2]] = KindCounter
				case "histogram":
					types[fields[2]] = KindHistogram
				default:
					types[fields[2]] = KindGauge
				}
			}
			continue
		}
		name, labels, value, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("promparse: line %d: %v", lineNo, err)
		}
		if fam, part := histFamily(name, types); fam != "" {
			key := fam + "|" + labelKey(dropLE(labels))
			acc, ok := hists[key]
			if !ok {
				acc = &histAccum{family: fam, labels: dropLE(labels)}
				hists[key] = acc
				histOrder = append(histOrder, key)
			}
			switch part {
			case "bucket":
				le := leValue(labels)
				acc.buckets = append(acc.buckets, bucketSample{le: le, cum: uint64(value)})
			case "sum":
				acc.sum = value
			case "count":
				acc.count = uint64(value)
			}
			continue
		}
		kind, ok := types[name]
		if !ok {
			kind = KindGauge
		}
		scalars = append(scalars, Metric{Name: name, Help: helps[name], Kind: kind, Labels: labels, Value: value})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("promparse: %w", err)
	}
	out := scalars
	for _, key := range histOrder {
		acc := hists[key]
		snap, err := acc.snapshot()
		if err != nil {
			return nil, fmt.Errorf("promparse: %s: %v", acc.family, err)
		}
		out = append(out, Metric{Name: acc.family, Help: helps[acc.family], Kind: KindHistogram, Labels: acc.labels, Hist: snap})
	}
	return out, nil
}

// helpUnescaper inverts escapeHelp.
var helpUnescaper = strings.NewReplacer(`\\`, `\`, `\n`, "\n")

// histFamily reports whether name is a histogram component series of a
// family declared `# TYPE <fam> histogram`, returning the family and the
// component ("bucket", "sum", "count"); ("", "") otherwise.
func histFamily(name string, types map[string]MetricKind) (fam, part string) {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == KindHistogram {
			return base, suffix[1:]
		}
	}
	return "", ""
}

type bucketSample struct {
	le  float64
	cum uint64
}

type histAccum struct {
	family  string
	labels  []Label
	buckets []bucketSample
	sum     float64
	count   uint64
}

// snapshot turns the accumulated cumulative buckets back into the
// per-bucket form HistogramSnapshot carries.
func (a *histAccum) snapshot() (*HistogramSnapshot, error) {
	sort.Slice(a.buckets, func(i, j int) bool { return a.buckets[i].le < a.buckets[j].le })
	snap := &HistogramSnapshot{Sum: a.sum}
	var prev uint64
	for _, b := range a.buckets {
		if math.IsInf(b.le, 1) {
			if b.cum < prev {
				return nil, fmt.Errorf("+Inf bucket %d below prior cumulative %d", b.cum, prev)
			}
			snap.Counts = append(snap.Counts, b.cum-prev)
			prev = b.cum
			continue
		}
		if b.cum < prev {
			return nil, fmt.Errorf("bucket le=%g cumulative %d below prior %d", b.le, b.cum, prev)
		}
		snap.Bounds = append(snap.Bounds, b.le)
		snap.Counts = append(snap.Counts, b.cum-prev)
		prev = b.cum
	}
	// A family missing its +Inf bucket still gets a consistent snapshot:
	// the implicit +Inf bucket holds whatever _count exceeds the last
	// cumulative bucket.
	if len(snap.Counts) == len(snap.Bounds) {
		extra := uint64(0)
		if a.count > prev {
			extra = a.count - prev
		}
		snap.Counts = append(snap.Counts, extra)
	}
	for _, c := range snap.Counts {
		snap.Count += c
	}
	return snap, nil
}

func leValue(labels []Label) float64 {
	for _, l := range labels {
		if l.Key == "le" {
			if l.Value == "+Inf" {
				return math.Inf(1)
			}
			v, err := strconv.ParseFloat(l.Value, 64)
			if err == nil {
				return v
			}
		}
	}
	return math.Inf(1)
}

func dropLE(labels []Label) []Label {
	var out []Label
	for _, l := range labels {
		if l.Key != "le" {
			out = append(out, l)
		}
	}
	return out
}

// parseSampleLine reads `name{k="v",…} value [timestamp]`.
func parseSampleLine(line string) (name string, labels []Label, value float64, err error) {
	rest := line
	if brace := strings.IndexByte(rest, '{'); brace >= 0 {
		name = rest[:brace]
		if labels, rest, err = parseLabelSet(rest[brace+1:]); err != nil {
			return "", nil, 0, err
		}
	} else {
		sp := strings.IndexAny(rest, " \t")
		if sp < 0 {
			return "", nil, 0, fmt.Errorf("no value on sample line")
		}
		name, rest = rest[:sp], rest[sp:]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", nil, 0, fmt.Errorf("no value on sample line")
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q", fields[0])
	}
	return name, labels, value, nil
}

// parseLabelSet reads `k="v",k2="v2"}` up to the closing brace outside any
// quoted value, unescaping \\, \n and \", and returns the text after it.
func parseLabelSet(s string) (labels []Label, rest string, err error) {
	for {
		s = strings.TrimLeft(s, " ,")
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		key := strings.TrimSpace(s[:eq])
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, "", fmt.Errorf("unquoted label value for %q", key)
		}
		var b strings.Builder
		i := 1
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				if s[i] == 'n' {
					b.WriteByte('\n')
					continue
				}
			}
			b.WriteByte(s[i])
		}
		if i == len(s) {
			return nil, "", fmt.Errorf("unterminated value of label %q", key)
		}
		labels = append(labels, L(key, b.String()))
		s = s[i+1:]
	}
}
