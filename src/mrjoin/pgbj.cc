#include "mrjoin/pgbj.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "dataset/sampling.h"
#include "knn/exact_knn.h"

namespace hamming::mrjoin {

namespace {

std::size_t NearestPivot(const FloatMatrix& pivots,
                         std::span<const double> vec) {
  std::size_t best = 0;
  double best_d = 1e300;
  for (std::size_t p = 0; p < pivots.rows(); ++p) {
    double d = FloatMatrix::SquaredL2(pivots.Row(p), vec);
    if (d < best_d) {
      best_d = d;
      best = p;
    }
  }
  return best;
}

}  // namespace

Result<PgbjResult> RunPgbjJoin(const FloatMatrix& r_data,
                               const FloatMatrix& s_data,
                               const PgbjOptions& opts,
                               mr::Cluster* cluster) {
  if (r_data.empty() || s_data.empty()) {
    return Status::InvalidArgument("empty join input");
  }
  if (opts.k == 0) return Status::InvalidArgument("k must be positive");
  PgbjResult result;
  mr::Counters plan_counters;

  // ---- Phase 1 (driver): pivots, cell radii, theta ---------------------
  Rng rng(opts.seed);
  const std::size_t num_pivots =
      std::min<std::size_t>(opts.num_partitions, r_data.rows());
  auto pivot_ids = ReservoirSampleIndices(r_data.rows(), num_pivots, &rng);
  FloatMatrix pivots = r_data.GatherRows(pivot_ids);

  std::size_t sample_n = std::max<std::size_t>(
      std::min<std::size_t>(r_data.rows(), opts.k + 1),
      static_cast<std::size_t>(opts.sample_rate *
                               static_cast<double>(r_data.rows())));
  auto sample_ids = ReservoirSampleIndices(r_data.rows(), sample_n, &rng);
  FloatMatrix sample = r_data.GatherRows(sample_ids);

  // Cell radius U_i: max distance of a sampled R tuple to its own pivot.
  std::vector<double> radius(num_pivots, 0.0);
  for (std::size_t i = 0; i < sample.rows(); ++i) {
    std::size_t p = NearestPivot(pivots, sample.Row(i));
    radius[p] = std::max(
        radius[p], FloatMatrix::L2(pivots.Row(p), sample.Row(i)));
  }
  // theta: conservative kNN-distance bound from the sample's self-join.
  double theta = 0.0;
  {
    std::size_t probe = std::min<std::size_t>(sample.rows(), 64);
    for (std::size_t i = 0; i < probe; ++i) {
      auto nn = ExactKnn(s_data, sample.Row(i), opts.k);
      if (!nn.empty()) theta = std::max(theta, nn.back().distance);
    }
    theta *= opts.theta_slack;
  }

  // Broadcast pivots + bounds (small).
  {
    BufferWriter w;
    w.PutVarint64(num_pivots);
    for (std::size_t p = 0; p < num_pivots; ++p) {
      for (double v : pivots.Row(p)) w.PutDouble(v);
    }
    for (double v : radius) w.PutDouble(v);
    w.PutDouble(theta);
    cluster->cache()->Broadcast(w.Release(), &plan_counters);
  }

  // ---- Phase 2: the join job -------------------------------------------
  const FloatMatrix* pivots_ptr = &pivots;
  const std::vector<double>* radius_ptr = &radius;
  const double theta_v = theta;
  const std::size_t k = opts.k;

  mr::JobSpec job;
  job.name = "pgbj-join";
  job.options = PlanJobOptions(opts, PartitionKeyRouter());
  job.options.num_reducers = num_pivots;
  auto records = MatrixToRecords(r_data, Table::kR);
  auto s_records = MatrixToRecords(s_data, Table::kS);
  records.insert(records.end(), std::make_move_iterator(s_records.begin()),
                 std::make_move_iterator(s_records.end()));
  job.input_splits = mr::SplitEvenly(std::move(records),
                                     cluster->total_slots());
  job.map_fn = [pivots_ptr, radius_ptr, theta_v](
                   const mr::Record& rec, mr::Emitter* out) -> Status {
    HAMMING_ASSIGN_OR_RETURN(VectorTuple t, DecodeVectorTuple(rec.value));
    if (t.table == Table::kR) {
      // R goes to its own Voronoi cell only.
      std::size_t p = NearestPivot(*pivots_ptr, t.vec);
      out->Emit(PartitionKey(static_cast<uint32_t>(p)), rec.value);
      return Status::OK();
    }
    // S is replicated to every cell that could contain a neighbour within
    // theta: d(s, p_i) <= U_i + theta.
    for (std::size_t p = 0; p < pivots_ptr->rows(); ++p) {
      double d = FloatMatrix::L2(pivots_ptr->Row(p), t.vec);
      if (d <= (*radius_ptr)[p] + theta_v) {
        out->Emit(PartitionKey(static_cast<uint32_t>(p)), rec.value);
      }
    }
    return Status::OK();
  };
  job.reduce_fn = [k](const std::vector<uint8_t>&,
                      const std::vector<std::vector<uint8_t>>& values,
                      mr::Emitter* out) -> Status {
    // Local exact kNN of the cell's R tuples against its S candidates.
    std::vector<VectorTuple> r_tuples;
    FloatMatrix s_local;
    std::vector<TupleId> s_ids;
    for (const auto& v : values) {
      HAMMING_ASSIGN_OR_RETURN(VectorTuple t, DecodeVectorTuple(v));
      if (t.table == Table::kR) {
        r_tuples.push_back(std::move(t));
      } else {
        HAMMING_RETURN_NOT_OK(s_local.AppendRow(t.vec));
        s_ids.push_back(t.id);
      }
    }
    for (const auto& r : r_tuples) {
      auto nn = ExactKnn(s_local, r.vec, k);
      BufferWriter w;
      w.PutVarint64(r.id);
      w.PutVarint64(nn.size());
      for (const auto& n : nn) {
        w.PutVarint64(s_ids[n.id]);
        w.PutDouble(n.distance);
      }
      out->Emit({}, w.Release());
    }
    return Status::OK();
  };
  HAMMING_ASSIGN_OR_RETURN(mr::JobResult job_result, RunJob(job, cluster));
  plan_counters.Merge(job_result.counters);

  for (const auto& part : job_result.outputs) {
    for (const auto& rec : part) {
      BufferReader r(rec.value);
      uint64_t rid, n;
      HAMMING_RETURN_NOT_OK(r.GetVarint64(&rid));
      HAMMING_RETURN_NOT_OK(r.GetVarint64(&n));
      KnnJoinRow row;
      row.r = static_cast<TupleId>(rid);
      row.neighbors.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        uint64_t sid;
        double dist;
        HAMMING_RETURN_NOT_OK(r.GetVarint64(&sid));
        HAMMING_RETURN_NOT_OK(r.GetDouble(&dist));
        row.neighbors.push_back(static_cast<TupleId>(sid));
      }
      result.rows.push_back(std::move(row));
    }
  }
  std::sort(result.rows.begin(), result.rows.end(),
            [](const KnnJoinRow& a, const KnnJoinRow& b) { return a.r < b.r; });
  result.shuffle_bytes = plan_counters.Get(mr::kShuffleBytes);
  result.broadcast_bytes = plan_counters.Get(mr::kBroadcastBytes);
  return result;
}

}  // namespace hamming::mrjoin
