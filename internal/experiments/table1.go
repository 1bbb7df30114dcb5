package experiments

import (
	"fmt"
	"time"

	"dcm/internal/metrics"
	"dcm/internal/model"
	"dcm/internal/ntier"
)

// Table1Row is one column of Table I: the trained model of one tier.
type Table1Row struct {
	Tier string `json:"tier"`
	// Params are the fitted Equation 5/7 parameters, reported in the
	// paper's gauge (S0 anchored to Table I; see model.TrainOptions).
	Params model.Params `json:"params"`
	// RSquared, OptimalN and MaxThroughput mirror Table I's R², N_b and
	// X_max rows.
	RSquared      float64 `json:"rSquared"`
	OptimalN      int     `json:"optimalN"`
	MaxThroughput float64 `json:"maxThroughput"`
	// Observations is the training data, kept for the report.
	Observations []model.Observation `json:"observations"`
}

// DefaultTrainingConcurrencies mirrors the paper's 1..200 Jmeter sweep.
func DefaultTrainingConcurrencies() []int {
	return []int{1, 2, 3, 5, 8, 12, 16, 20, 25, 30, 40, 50, 60, 80, 100, 130, 160, 200}
}

// TrainTomcatModel reproduces §V-A's Tomcat training: the 1/1/1 system is
// driven by a zero-think closed loop at each concurrency level (thread
// pool matched to the workload concurrency so the request-processing
// concurrency in Tomcat equals N), and Equation 7 is fitted to the
// (concurrency, system throughput) pairs.
func TrainTomcatModel(seed uint64, concurrencies []int, measure time.Duration) (Table1Row, error) {
	if len(concurrencies) == 0 {
		concurrencies = DefaultTrainingConcurrencies()
	}
	if measure <= 0 {
		measure = 15 * time.Second
	}
	obs := make([]model.Observation, 0, len(concurrencies))
	for _, n := range concurrencies {
		cfg := ntier.DefaultConfig()
		cfg.AppThreads = n
		m, err := SteadyState(seed, cfg, n, 0, 5*time.Second, measure, nil)
		if err != nil {
			return Table1Row{}, fmt.Errorf("experiments: tomcat training at N=%d: %w", n, err)
		}
		obs = append(obs, model.Observation{Concurrency: float64(n), Throughput: m.Throughput})
	}
	paperTomcat, _ := model.TableI()
	return trainRow("tomcat", obs, paperTomcat.S0)
}

// trainRow fits Equation 7 to one tier's observations, with S0 anchored
// to the paper's Table I value.
func trainRow(tier string, obs []model.Observation, knownS0 float64) (Table1Row, error) {
	res, err := model.Train(obs, model.TrainOptions{Servers: 1, KnownS0: knownS0})
	if err != nil {
		return Table1Row{}, fmt.Errorf("experiments: %s training: %w", tier, err)
	}
	return Table1Row{
		Tier:          tier,
		Params:        res.Params,
		RSquared:      res.RSquared,
		OptimalN:      res.OptimalN,
		MaxThroughput: res.MaxThroughput,
		Observations:  obs,
	}, nil
}

// DefaultMySQLTrainingConcurrencies sweeps 1..40: around the optimum and
// up to (not past) the thrashing knee, where Equation 5's graceful
// contention assumption holds. (The paper's own Table I — a gentle
// quadratic — against its Fig. 2(a) — a steep collapse — shows the same
// limit of the model's validity range.)
func DefaultMySQLTrainingConcurrencies() []int {
	return []int{1, 2, 3, 5, 8, 12, 16, 20, 24, 28, 32, 36, 40}
}

// TrainMySQLModel reproduces §V-A's MySQL training. The paper trains the
// MySQL model where MySQL is the bottleneck tier; in the simulated testbed
// (as in any real deployment whose app tier throttles past its own
// optimum) the full-stack path cannot drive MySQL far past its optimal
// concurrency, so the training workload stresses the MySQL server directly
// with a matched thread pool — the method §II-B itself uses for Fig. 2(a).
// Throughput is reported at request level (queries per second divided by
// the visit ratio V=2) so the fitted X_max is comparable to Table I.
func TrainMySQLModel(seed uint64, concurrencies []int, measure time.Duration) (Table1Row, error) {
	if len(concurrencies) == 0 {
		concurrencies = DefaultMySQLTrainingConcurrencies()
	}
	if measure <= 0 {
		measure = 15 * time.Second
	}
	cfg := ntier.DefaultConfig()
	visit := float64(cfg.QueriesPerRequest)
	if visit <= 0 {
		visit = 1
	}
	obs := make([]model.Observation, 0, len(concurrencies))
	for _, n := range concurrencies {
		row, err := fig2aPoint(seed, cfg, n, measure, nil)
		if err != nil {
			return Table1Row{}, fmt.Errorf("experiments: mysql training at N=%d: %w", n, err)
		}
		obs = append(obs, model.Observation{
			Concurrency: float64(n),
			Throughput:  row.QueriesPerS / visit,
		})
	}
	_, paperMySQL := model.TableI()
	return trainRow("mysql", obs, paperMySQL.S0)
}

// Table1 runs both trainings.
func Table1(seed uint64, measure time.Duration) (tomcat, mysql Table1Row, err error) {
	tomcat, err = TrainTomcatModel(seed, nil, measure)
	if err != nil {
		return tomcat, mysql, err
	}
	mysql, err = TrainMySQLModel(seed, nil, measure)
	return tomcat, mysql, err
}

// RenderTable1 renders the two trained models next to the paper's values.
func RenderTable1(tomcat, mysql Table1Row) string {
	paperT, paperM := model.TableI()
	tb := metrics.NewTable("parameter", "Tomcat (paper)", "Tomcat (measured)", "MySQL (paper)", "MySQL (measured)")
	tb.AddRow("S0", fmt.Sprintf("%.2e", paperT.S0), fmt.Sprintf("%.2e", tomcat.Params.S0),
		fmt.Sprintf("%.2e", paperM.S0), fmt.Sprintf("%.2e", mysql.Params.S0))
	tb.AddRow("alpha", fmt.Sprintf("%.2e", paperT.Alpha), fmt.Sprintf("%.2e", tomcat.Params.Alpha),
		fmt.Sprintf("%.2e", paperM.Alpha), fmt.Sprintf("%.2e", mysql.Params.Alpha))
	tb.AddRow("beta", fmt.Sprintf("%.2e", paperT.Beta), fmt.Sprintf("%.2e", tomcat.Params.Beta),
		fmt.Sprintf("%.2e", paperM.Beta), fmt.Sprintf("%.2e", mysql.Params.Beta))
	tb.AddRow("gamma", fmtF(paperT.Gamma, 2), fmtF(tomcat.Params.Gamma, 2),
		fmtF(paperM.Gamma, 2), fmtF(mysql.Params.Gamma, 2))
	tb.AddRow("R^2", "0.96", fmtF(tomcat.RSquared, 3), "0.97", fmtF(mysql.RSquared, 3))
	tb.AddRow("N_b", "20", fmt.Sprintf("%d", tomcat.OptimalN), "36", fmt.Sprintf("%d", mysql.OptimalN))
	tb.AddRow("X_max", "946", fmtF(tomcat.MaxThroughput, 0), "865", fmtF(mysql.MaxThroughput, 0))
	return tb.String()
}

// TrainedModels returns the tier models the DCM controller runs with in
// the Fig. 5 scenarios: the output of Table1 training on the calibrated
// simulator, frozen as constants so scenario runs do not pay the training
// sweep. TestTrainedModelsMatchTraining keeps them honest against a fresh
// Table1 run.
func TrainedModels() (tomcat, mysql model.Params) {
	// γ=1 gauge (gauge choice does not affect N_b or the allocation plan).
	tomcat = model.Params{S0: 4.64e-3, Alpha: 8.08e-4, Beta: 9.46e-6, Gamma: 1}
	mysql = ntier.DefaultConfig().DBModel // direct stress recovers the law itself
	return tomcat, mysql
}
