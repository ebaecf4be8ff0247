#include "service/batch_format.h"

#include <istream>
#include <ostream>

#include "io/record.h"
#include "support/error.h"

namespace swapp::service {

std::vector<BatchRow> read_batch_requests(std::istream& in) {
  io::RecordReader reader(in, "swapp-batch", 1);
  io::Record rec;
  std::vector<BatchRow> rows;
  while (reader.next(rec)) {
    if (rec.tag != "request") {
      throw InvalidArgument("unknown record in batch document: " + rec.tag);
    }
    if (rec.fields.size() < 3) {
      throw InvalidArgument("request row needs: app, target, tasks");
    }
    BatchRow row;
    row.app = rec.str(0);
    row.target = rec.str(1);
    row.tasks = static_cast<int>(rec.integer(2));
    if (rec.fields.size() > 3) row.threads = static_cast<int>(rec.integer(3));
    if (rec.fields.size() > 4) {
      row.reference = static_cast<int>(rec.integer(4));
    }
    rows.push_back(row);
  }
  if (rows.empty()) throw InvalidArgument("batch document has no requests");
  return rows;
}

void write_batch_requests(std::ostream& out,
                          const std::vector<BatchRow>& rows) {
  io::RecordWriter writer(out, "swapp-batch", 1);
  for (const BatchRow& row : rows) {
    writer.row("request")
        .field(row.app)
        .field(row.target)
        .field(row.tasks)
        .field(row.threads)
        .field(row.reference);
  }
}

ServiceRequest to_service_request(const BatchRow& row) {
  ServiceRequest request;
  request.app = row.app;
  request.target = row.target;
  request.cores = row.tasks;
  request.threads = row.threads;
  if (row.reference > 0) {
    request.options.compute.surrogate_reference_cores = row.reference;
  }
  return request;
}

std::vector<machine::Machine> row_targets(const std::vector<BatchRow>& rows) {
  std::vector<machine::Machine> targets;
  for (const BatchRow& row : rows) {
    bool known = false;
    for (const machine::Machine& t : targets) known |= t.name == row.target;
    if (!known) targets.push_back(machine::machine_by_name(row.target));
  }
  return targets;
}

}  // namespace swapp::service
