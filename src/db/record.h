// Result-database record (§III-A1): "each record in the database contains
// information on energy efficiency and performance (e.g., time of the test,
// workload modes, energy dissipation data, performance result, and
// energy-efficiency result)".
#pragma once

#include <cstdint>
#include <string>

#include "util/types.h"

namespace tracer::db {

struct TestRecord {
  // Test identity
  std::uint64_t test_id = 0;
  std::string timestamp;       ///< ISO-8601 wall-clock of the test
  std::string device;          ///< storage system under test
  std::string trace_name;      ///< trace replayed

  // Workload mode vector (request size, random rate, read rate, load)
  Bytes request_size = 0;
  double random_ratio = 0.0;
  double read_ratio = 0.0;
  double load_proportion = 0.0;

  // Energy dissipation data (average current, voltage, power)
  double avg_amps = 0.0;
  double avg_volts = 0.0;
  Watts avg_watts = 0.0;
  Joules joules = 0.0;

  // Performance result
  double iops = 0.0;
  double mbps = 0.0;
  double avg_response_ms = 0.0;

  // Energy-efficiency result (the paper's two new metrics)
  double iops_per_watt = 0.0;
  double mbps_per_kilowatt = 0.0;

  friend bool operator==(const TestRecord&, const TestRecord&) = default;
};

}  // namespace tracer::db
