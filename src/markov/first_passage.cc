#include "markov/first_passage.h"

#include "markov/absorbing_solve.h"

namespace wfms::markov {

using linalg::Vector;

Result<Vector> MeanFirstPassageTimes(const AbsorbingCtmc& chain,
                                     FirstPassageMethod method) {
  const TransientSolver solver = method == FirstPassageMethod::kLu
                                     ? TransientSolver::kDenseLu
                                     : TransientSolver::kAuto;
  auto solved = SolveTransientSystem(chain, SystemSide::kColumn,
                                     chain.residence_times(), solver);
  if (!solved.ok()) {
    return solved.status().WithContext("first-passage system");
  }
  for (double m : *solved) {
    if (m < 0.0) {
      return Status::NumericError(
          "negative first-passage time; chain is ill-conditioned");
    }
  }
  return solved;
}

Result<double> MeanTurnaroundTime(const AbsorbingCtmc& chain,
                                  FirstPassageMethod method) {
  WFMS_ASSIGN_OR_RETURN(Vector times, MeanFirstPassageTimes(chain, method));
  return times[chain.initial_state()];
}

}  // namespace wfms::markov
