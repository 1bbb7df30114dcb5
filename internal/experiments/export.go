package experiments

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"dcm/internal/ntier"
)

// WriteSeriesCSV writes a scenario's per-second series in a tidy CSV —
// one row per second with every Fig. 5 panel's value — ready for any
// plotting tool:
//
//	t,users,throughput,mean_rt,p95_rt,app_res,db_res,web_n,web_cpu,app_n,app_cpu,db_n,db_cpu
func (r *ScenarioResult) WriteSeriesCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(
		"t,users,throughput,mean_rt,p95_rt,app_res,db_res,web_n,web_cpu,app_n,app_cpu,db_n,db_cpu\n"); err != nil {
		return fmt.Errorf("experiments: write csv header: %w", err)
	}
	for i := range r.Seconds {
		row := strconv.FormatFloat(r.Seconds[i], 'f', 0, 64) +
			"," + strconv.Itoa(r.Users[i]) +
			"," + strconv.FormatFloat(r.Throughput[i], 'f', 1, 64) +
			"," + strconv.FormatFloat(r.MeanRTSec[i], 'f', 4, 64) +
			"," + strconv.FormatFloat(r.P95RTSec[i], 'f', 4, 64) +
			"," + strconv.FormatFloat(r.AppResSec[i], 'f', 4, 64) +
			"," + strconv.FormatFloat(r.DBResSec[i], 'f', 4, 64)
		for _, tierName := range ntier.Tiers() {
			row += "," + strconv.Itoa(r.TierCounts[tierName][i]) +
				"," + strconv.FormatFloat(r.TierCPU[tierName][i], 'f', 3, 64)
		}
		row += "\n"
		if _, err := bw.WriteString(row); err != nil {
			return fmt.Errorf("experiments: write csv row: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("experiments: flush csv: %w", err)
	}
	return nil
}
