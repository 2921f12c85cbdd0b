package metrics

import (
	"fmt"
	"strings"
)

// openMetricsContentType is the negotiated Content-Type of the
// OpenMetrics text exposition.
const openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// labelEscaper applies OpenMetrics label-value escaping: backslash,
// double quote, and line feed.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// formatExemplar renders the OpenMetrics exemplar suffix of a bucket
// line: " # {label="value",...} scaledValue".
func formatExemplar(ex *Exemplar, scale float64) string {
	var sb strings.Builder
	sb.WriteString(" # {")
	for i, l := range ex.Labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=\"%s\"", l.Key, labelEscaper.Replace(l.Val))
	}
	sb.WriteString("} ")
	sb.WriteString(formatFloat(float64(ex.Value) * scale))
	return sb.String()
}
