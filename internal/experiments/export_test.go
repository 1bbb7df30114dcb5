package experiments

import (
	"fmt"
	"time"
)

// Used only by this package's tests; no production code calls these.

// PlateauThroughput returns each allocation's throughput at the highest
// user level — the saturated plateau the paper's claim ("the optimal
// allocation outperforms the others") is about.
func PlateauThroughput(rows []Fig4Row) map[string]float64 {
	if len(rows) == 0 {
		return nil
	}
	last := rows[len(rows)-1]
	out := make(map[string]float64, len(last.Throughput))
	for k, v := range last.Throughput {
		out[k] = v
	}
	return out
}

// VerifyTrainedModels re-trains both tier models and checks the frozen
// TrainedModels constants still agree on the planning-relevant quantity
// N_b. It returns the freshly trained rows for reporting.
func VerifyTrainedModels(seed uint64, measure time.Duration) (tomcat, mysql Table1Row, err error) {
	tomcat, mysql, err = Table1(seed, measure)
	if err != nil {
		return tomcat, mysql, err
	}
	frozenT, frozenM := TrainedModels()
	ftN, _ := frozenT.OptimalConcurrencyInt()
	fmN, _ := frozenM.OptimalConcurrencyInt()
	if diff := ftN - tomcat.OptimalN; diff < -2 || diff > 2 {
		return tomcat, mysql, fmt.Errorf(
			"experiments: frozen tomcat N_b %d drifted from trained %d", ftN, tomcat.OptimalN)
	}
	if diff := fmN - mysql.OptimalN; diff < -2 || diff > 2 {
		return tomcat, mysql, fmt.Errorf(
			"experiments: frozen mysql N_b %d drifted from trained %d", fmN, mysql.OptimalN)
	}
	return tomcat, mysql, nil
}
