package ml

import "fmt"

// ModelSpec names one of the paper's eighteen regressors: the paper code
// (R1…R18), the legend name, and a constructor returning a fresh
// estimator with default hyperparameters.
type ModelSpec struct {
	// Code is the paper's index, "R1" … "R18".
	Code string
	// Name is the legend label ("RFR", "SVM_Linear", …).
	Name string
	// FullName is the spelled-out estimator name.
	FullName string
	// New constructs a fresh estimator.
	New func() Regressor
}

// AllModels returns the eighteen regressors of Section V-A2 in the paper's
// alphabetical order R1…R18. Every call returns fresh constructors; the
// estimators themselves are created lazily via New.
func AllModels() []ModelSpec {
	return []ModelSpec{
		{"R1", "AdaBoostR", "Ada Boost Regressor", func() Regressor { return NewAdaBoostRegressor() }},
		{"R2", "ARDR", "ARD Regression", func() Regressor { return NewARDRegression() }},
		{"R3", "Bagging", "Bagging Regressor", func() Regressor { return NewBaggingRegressor() }},
		{"R4", "DTR", "Decision Tree Regressor", func() Regressor { return NewDecisionTreeRegressor() }},
		{"R5", "ElasticNet", "Elastic Net", func() Regressor { return NewElasticNet() }},
		{"R6", "GBR", "Gradient Boosting Regressor", func() Regressor { return NewGradientBoostingRegressor() }},
		{"R7", "GPR", "Gaussian Process Regressor", func() Regressor { return NewGaussianProcessRegressor() }},
		{"R8", "HGBR", "Histogram-based Gradient Boosting Regression", func() Regressor { return NewHistGradientBoostingRegressor() }},
		{"R9", "HuberR", "Huber Regressor", func() Regressor { return NewHuberRegressor() }},
		{"R10", "Lasso", "Lasso", func() Regressor { return NewLasso() }},
		{"R11", "LR", "Linear Regression", func() Regressor { return NewLinearRegression() }},
		{"R12", "RANSACR", "RANdom SAmple Consensus Regressor", func() Regressor { return NewRANSACRegressor() }},
		{"R13", "RFR", "Random Forest Regressor", func() Regressor { return NewRandomForestRegressor() }},
		{"R14", "Ridge", "Ridge", func() Regressor { return NewRidge() }},
		{"R15", "SGDR", "Stochastic Gradient Descent Regressor", func() Regressor { return NewSGDRegressor() }},
		{"R16", "SVM_Linear", "Support Vector Machine / Linear Kernel", func() Regressor { return NewLinearSVR() }},
		{"R17", "SVM_RBF", "Support Vector Machine / RBF Kernel", func() Regressor { return NewKernelSVR() }},
		{"R18", "TheilSenR", "Theil-Sen Regressor", func() Regressor { return NewTheilSenRegressor() }},
	}
}

// ModelByName returns the paper model whose Name or Code matches
// (case-sensitive).
func ModelByName(name string) (ModelSpec, error) {
	for _, spec := range AllModels() {
		if spec.Name == name || spec.Code == name {
			return spec, nil
		}
	}
	return ModelSpec{}, fmt.Errorf("ml: unknown model %q", name)
}
