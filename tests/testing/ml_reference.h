// The reference fits of the SSR models with fast training paths. Each one
// is the original algorithm the fast path replaced, written against the
// library's public API only, and is the one thing that fast path is checked
// bit-identical against — by the tests and by `bench_ml`:
//
//   ReferenceMlpFit          per-sample forward/backward
//   ReferenceMeanTeacherFit  per-sample, the same RNG draw order
//   ReferenceCoregFit        full-rescan tentative-add screening
//
// The neural references walk DenseNet::params() by hand in its documented
// layout: per layer, row-major W[in][out] followed by b[out]. They start
// from the same He initialisation (the DenseNet constructor) and the same
// scalers, and update parameters through the scalar loops below
// (ReferenceAdam, ReferenceEma), the originals of AdamOptimizer::Step and
// Mean Teacher's teacher update. Any difference in the result is a
// difference in how gradients are computed and accumulated or how the
// vectorised updates round.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ml/coreg.h"
#include "ml/knn.h"
#include "ml/matrix.h"
#include "ml/mean_teacher.h"
#include "ml/mlp.h"
#include "ml/model.h"
#include "ml/scaler.h"
#include "util/rng.h"

namespace staq::testing {

/// AdamOptimizer (AdamW) as one scalar loop over std::vector elements.
class ReferenceAdam {
 public:
  ReferenceAdam(size_t num_params, double lr, double weight_decay)
      : lr_(lr),
        weight_decay_(weight_decay),
        m_(num_params, 0.0),
        v_(num_params, 0.0) {}

  void Step(std::vector<double>* params, const std::vector<double>& grad) {
    ++t_;
    double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
    double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
    for (size_t i = 0; i < grad.size(); ++i) {
      m_[i] = beta1_ * m_[i] + (1 - beta1_) * grad[i];
      v_[i] = beta2_ * v_[i] + (1 - beta2_) * grad[i] * grad[i];
      double m_hat = m_[i] / bc1;
      double v_hat = v_[i] / bc2;
      (*params)[i] -= lr_ * (m_hat / (std::sqrt(v_hat) + eps_) +
                             weight_decay_ * (*params)[i]);
    }
  }

 private:
  double lr_;
  double weight_decay_;
  double beta1_ = 0.9;
  double beta2_ = 0.999;
  double eps_ = 1e-8;
  int64_t t_ = 0;
  std::vector<double> m_, v_;
};

/// Mean Teacher's EMA teacher update as one scalar loop.
inline void ReferenceEma(double decay, const std::vector<double>& student,
                         std::vector<double>* teacher) {
  std::vector<double>& tp = *teacher;
  for (size_t i = 0; i < tp.size(); ++i) {
    tp[i] = decay * tp[i] + (1.0 - decay) * student[i];
  }
}

namespace ml_reference_detail {

/// Layer widths [in, h1, ..., 1] of a DenseNet built with `hidden`.
inline std::vector<size_t> NetDims(size_t input_dim,
                                   const std::vector<size_t>& hidden) {
  std::vector<size_t> dims{input_dim};
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  dims.push_back(1);
  return dims;
}

/// Offset of each layer's W in the flat parameter vector.
inline std::vector<size_t> LayerOffsets(const std::vector<size_t>& dims) {
  std::vector<size_t> offsets;
  size_t total = 0;
  for (size_t l = 0; l + 1 < dims.size(); ++l) {
    offsets.push_back(total);
    total += dims[l] * dims[l + 1] + dims[l + 1];
  }
  return offsets;
}

/// One-sample forward pass. When `activations` is non-null it receives the
/// post-nonlinearity output of every layer, as Backward needs.
inline double Forward(const std::vector<double>& params,
                      const std::vector<size_t>& dims, const double* x,
                      std::vector<std::vector<double>>* activations = nullptr) {
  const std::vector<size_t> offsets = LayerOffsets(dims);
  if (activations) activations->assign(dims.size() - 1, {});
  std::vector<double> current(x, x + dims[0]);
  for (size_t l = 0; l + 1 < dims.size(); ++l) {
    const size_t in = dims[l], out = dims[l + 1];
    const double* w = params.data() + offsets[l];
    const double* b = w + in * out;
    std::vector<double> next(out, 0.0);
    for (size_t i = 0; i < in; ++i) {
      const double xi = current[i];
      if (xi == 0.0) continue;
      const double* w_row = w + i * out;
      for (size_t j = 0; j < out; ++j) next[j] += xi * w_row[j];
    }
    const bool is_output = (l + 2 == dims.size());
    for (size_t j = 0; j < out; ++j) {
      next[j] += b[j];
      if (!is_output && next[j] < 0.0) next[j] = 0.0;  // ReLU
    }
    if (activations) (*activations)[l] = next;
    current = std::move(next);
  }
  return current[0];
}

/// Accumulates dL/dparams into `grad` for one sample, given the upstream
/// gradient dL/doutput and the activations Forward recorded for `x`.
inline void Backward(const std::vector<double>& params,
                     const std::vector<size_t>& dims, const double* x,
                     const std::vector<std::vector<double>>& activations,
                     double dloss_dout, std::vector<double>* grad) {
  const std::vector<size_t> offsets = LayerOffsets(dims);
  const size_t num_layers = dims.size() - 1;
  std::vector<double> delta{dloss_dout};  // gradient wrt layer output
  for (size_t l = num_layers; l-- > 0;) {
    const size_t in = dims[l], out = dims[l + 1];
    const double* input = (l == 0) ? x : activations[l - 1].data();
    const double* w = params.data() + offsets[l];
    double* gw = grad->data() + offsets[l];
    double* gb = gw + in * out;

    // ReLU mask on hidden-layer outputs (the output layer is linear).
    std::vector<double> local = delta;
    if (l + 1 != num_layers) {
      for (size_t j = 0; j < out; ++j) {
        if (activations[l][j] <= 0.0) local[j] = 0.0;
      }
    }
    for (size_t j = 0; j < out; ++j) gb[j] += local[j];
    std::vector<double> next_delta(in, 0.0);
    for (size_t i = 0; i < in; ++i) {
      const double xi = input[i];
      const double* w_row = w + i * out;
      double* gw_row = gw + i * out;
      double acc = 0.0;
      for (size_t j = 0; j < out; ++j) {
        gw_row[j] += xi * local[j];
        acc += w_row[j] * local[j];
      }
      next_delta[i] = acc;
    }
    delta = std::move(next_delta);
  }
}

/// The labeled rows standardised by `scaler` (fit on them) and their
/// targets standardised by `target_scaler` (fit on them).
inline ml::Matrix ScaleLabeled(const ml::Dataset& data,
                               ml::StandardScaler* scaler,
                               ml::TargetScaler* target_scaler,
                               std::vector<double>* ys) {
  ml::Matrix x_labeled = data.x.SelectRows(data.labeled);
  scaler->Fit(x_labeled);
  std::vector<double> y_labeled(data.labeled.size());
  for (size_t i = 0; i < data.labeled.size(); ++i) {
    y_labeled[i] = data.y[data.labeled[i]];
  }
  target_scaler->Fit(y_labeled);
  *ys = target_scaler->Transform(y_labeled);
  return scaler->Transform(x_labeled);
}

/// Sigmoid ramp-up from the Mean Teacher paper: exp(-5 (1 - t)^2).
inline double RampUp(double progress) {
  if (progress >= 1.0) return 1.0;
  const double phase = 1.0 - progress;
  return std::exp(-5.0 * phase * phase);
}

}  // namespace ml_reference_detail

/// A fitted reference network (the MLP, or Mean Teacher's teacher).
struct ReferenceNet {
  std::vector<size_t> dims;
  ml::DenseNet net;
  ml::TargetScaler target_scaler;
  ml::Matrix x_all_scaled;

  /// One serial forward pass per row, in row order.
  std::vector<double> Predict() const {
    std::vector<double> out(x_all_scaled.rows());
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = target_scaler.InverseTransform(ml_reference_detail::Forward(
          net.params(), dims, x_all_scaled.row(i)));
    }
    return out;
  }
};

/// MlpRegressor::Fit one sample at a time: every mini-batch sums per-sample
/// gradients in batch order. Requires a valid dataset.
inline ReferenceNet ReferenceMlpFit(const ml::Dataset& data,
                                    const ml::MlpConfig& config) {
  namespace d = ml_reference_detail;
  ml::StandardScaler scaler;
  ml::TargetScaler target_scaler;
  std::vector<double> ys;
  const ml::Matrix xs = d::ScaleLabeled(data, &scaler, &target_scaler, &ys);

  util::Rng rng(config.seed);
  ReferenceNet ref{d::NetDims(xs.cols(), config.hidden),
                   ml::DenseNet(xs.cols(), config.hidden, &rng),
                   target_scaler, scaler.Transform(data.x)};
  std::vector<double>& params = ref.net.params();
  ReferenceAdam opt(params.size(), config.learning_rate, config.weight_decay);
  const size_t n = xs.rows();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::vector<double> grad(params.size());
  std::vector<std::vector<double>> acts;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < n; start += config.batch_size) {
      const size_t end = std::min(n, start + config.batch_size);
      std::fill(grad.begin(), grad.end(), 0.0);
      for (size_t b = start; b < end; ++b) {
        const size_t i = order[b];
        const double pred = d::Forward(params, ref.dims, xs.row(i), &acts);
        // d(0.5 (pred - y)^2)/dpred, averaged over the batch.
        const double dloss = (pred - ys[i]) / static_cast<double>(end - start);
        d::Backward(params, ref.dims, xs.row(i), acts, dloss, &grad);
      }
      opt.Step(&params, grad);
    }
  }
  return ref;
}

/// MeanTeacher::Fit one sample at a time. Per consistency sample the RNG
/// draws the pool pick, then student and teacher noise interleaved per
/// feature. Requires a valid dataset.
inline ReferenceNet ReferenceMeanTeacherFit(
    const ml::Dataset& data, const ml::MeanTeacherConfig& config) {
  namespace d = ml_reference_detail;
  ml::StandardScaler scaler;
  ml::TargetScaler target_scaler;
  std::vector<double> ys;
  const ml::Matrix xs = d::ScaleLabeled(data, &scaler, &target_scaler, &ys);
  const size_t dim = xs.cols();
  const std::vector<uint32_t> unlabeled = data.UnlabeledIndices();

  util::Rng rng(config.seed);
  ml::DenseNet student(dim, config.hidden, &rng);
  ReferenceNet teacher{d::NetDims(dim, config.hidden), student, target_scaler,
                       scaler.Transform(data.x)};
  const std::vector<size_t>& dims = teacher.dims;
  ReferenceAdam opt(student.num_params(), config.learning_rate,
                    config.weight_decay);

  const size_t n = xs.rows();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::vector<double> grad(student.num_params());
  const int rampup_epochs =
      std::max(1, static_cast<int>(config.epochs * config.rampup_fraction));
  std::vector<std::vector<double>> acts;
  std::vector<double> noisy(dim), noisy_teacher(dim);
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    const double consistency =
        config.consistency_weight_max *
        d::RampUp(static_cast<double>(epoch) / rampup_epochs);
    rng.Shuffle(&order);
    for (size_t start = 0; start < n; start += config.batch_size) {
      const size_t end = std::min(n, start + config.batch_size);
      const size_t batch = end - start;
      std::fill(grad.begin(), grad.end(), 0.0);

      // Supervised term.
      for (size_t b = start; b < end; ++b) {
        const size_t i = order[b];
        const double pred =
            d::Forward(student.params(), dims, xs.row(i), &acts);
        const double dloss = (pred - ys[i]) / static_cast<double>(batch);
        d::Backward(student.params(), dims, xs.row(i), acts, dloss, &grad);
      }

      // Consistency term on a same-sized sample of unlabeled zones.
      if (!unlabeled.empty() && consistency > 0.0) {
        for (size_t b = 0; b < batch; ++b) {
          const uint32_t u = unlabeled[static_cast<size_t>(
              rng.UniformU64(unlabeled.size()))];
          const double* row = teacher.x_all_scaled.row(u);
          for (size_t c = 0; c < dim; ++c) {
            noisy[c] = row[c] + rng.Normal(0.0, config.input_noise);
            noisy_teacher[c] = row[c] + rng.Normal(0.0, config.input_noise);
          }
          const double target =
              d::Forward(teacher.net.params(), dims, noisy_teacher.data());
          const double pred =
              d::Forward(student.params(), dims, noisy.data(), &acts);
          const double dloss =
              consistency * (pred - target) / static_cast<double>(batch);
          d::Backward(student.params(), dims, noisy.data(), acts, dloss, &grad);
        }
      }

      opt.Step(&student.params(), grad);

      ReferenceEma(config.ema_decay, student.params(), &teacher.net.params());
    }
  }
  return teacher;
}

/// A fitted reference COREG: both component stores and the pseudo-label
/// count.
struct ReferenceCoreg {
  ml::Matrix x_all_scaled;
  ml::KnnCore h1, h2;
  int pseudo_labels_added = 0;

  /// One serial PredictOne pair per row, in row order.
  std::vector<double> Predict() const {
    const size_t dim = x_all_scaled.cols();
    std::vector<double> out(x_all_scaled.rows());
    ml::NeighborScratch scratch;
    for (size_t i = 0; i < out.size(); ++i) {
      const double* row = x_all_scaled.row(i);
      out[i] = 0.5 * (h1.PredictOne(row, dim, &scratch) +
                      h2.PredictOne(row, dim, &scratch));
    }
    return out;
  }
};

namespace ml_reference_detail {

/// Leave-one-out prediction for stored example `i` of `model`: a full
/// rescan of the store.
inline double PredictExcluding(const ml::KnnCore& model, uint32_t i,
                               ml::NeighborScratch* scratch) {
  const size_t len =
      model.SelectTopK(model.features(i), model.dim(), i, scratch);
  return model.PredictFromList(scratch->heap.data(), len);
}

/// Zhou & Li's confidence criterion: the drop in squared leave-one-out
/// error over `candidate`'s neighbourhood in `model` when (candidate,
/// pseudo_label) is added to it. Every neighbourhood is recomputed from
/// scratch, "after" on `tentative`, a copy of the store holding the extra
/// example. Positive means the addition helps.
inline double ErrorReduction(const ml::KnnCore& model, ml::KnnCore* tentative,
                             const double* candidate, double pseudo_label,
                             ml::NeighborScratch* scratch) {
  const size_t dim = model.dim();
  const size_t len = model.SelectTopK(candidate, dim, UINT32_MAX, scratch);
  std::vector<uint32_t> neighborhood;
  for (size_t i = 0; i < len; ++i) {
    neighborhood.push_back(scratch->heap[i].second);
  }
  if (neighborhood.empty()) return 0.0;

  double before = 0.0;
  for (uint32_t i : neighborhood) {
    const double err = model.target(i) - PredictExcluding(model, i, scratch);
    before += err * err;
  }
  *tentative = model;
  tentative->Add(candidate, dim, pseudo_label);
  double after = 0.0;
  for (uint32_t i : neighborhood) {
    const double err =
        tentative->target(i) - PredictExcluding(*tentative, i, scratch);
    after += err * err;
  }
  return before - after;
}

}  // namespace ml_reference_detail

/// Coreg::Fit with the original screening: every pool candidate of every
/// iteration is scored by ErrorReduction above, serially. Requires a valid
/// dataset.
inline ReferenceCoreg ReferenceCoregFit(const ml::Dataset& data,
                                        const ml::CoregConfig& config) {
  ml::StandardScaler scaler;
  scaler.Fit(data.x.SelectRows(data.labeled));
  ReferenceCoreg ref{scaler.Transform(data.x), ml::KnnCore(config.knn1),
                     ml::KnnCore(config.knn2)};
  const ml::Matrix& x = ref.x_all_scaled;
  const size_t dim = x.cols();
  for (uint32_t idx : data.labeled) {
    ref.h1.Add(x.row(idx), dim, data.y[idx]);
    ref.h2.Add(x.row(idx), dim, data.y[idx]);
  }

  // Unlabeled pool; replenished from the remaining unlabeled set.
  std::vector<uint32_t> unlabeled = data.UnlabeledIndices();
  util::Rng rng(config.seed);
  rng.Shuffle(&unlabeled);
  size_t pool_end = std::min(config.pool_size, unlabeled.size());

  ml::KnnCore tentative(config.knn1);
  ml::NeighborScratch scratch;
  for (int iter = 0; iter < config.max_iterations; ++iter) {
    bool any_added = false;
    // Each regressor nominates its best candidate for the OTHER one.
    ml::KnnCore* models[2] = {&ref.h1, &ref.h2};
    for (int j = 0; j < 2; ++j) {
      const ml::KnnCore& self = *models[j];
      double best_delta = 0.0;
      size_t best_pos = SIZE_MAX;
      double best_label = 0.0;
      for (size_t p = 0; p < pool_end; ++p) {
        const double* row = x.row(unlabeled[p]);
        const double pseudo = self.PredictOne(row, dim, &scratch);
        const double delta = ml_reference_detail::ErrorReduction(
            self, &tentative, row, pseudo, &scratch);
        if (delta > best_delta) {
          best_delta = delta;
          best_pos = p;
          best_label = pseudo;
        }
      }
      if (best_pos == SIZE_MAX) continue;
      models[1 - j]->Add(x.row(unlabeled[best_pos]), dim, best_label);
      ++ref.pseudo_labels_added;
      any_added = true;
      // Remove from pool; backfill from the unscreened remainder.
      std::swap(unlabeled[best_pos], unlabeled[pool_end - 1]);
      if (pool_end < unlabeled.size()) {
        std::swap(unlabeled[pool_end - 1], unlabeled.back());
      } else {
        --pool_end;
      }
      unlabeled.pop_back();
    }
    if (!any_added) break;
  }
  return ref;
}

}  // namespace staq::testing
