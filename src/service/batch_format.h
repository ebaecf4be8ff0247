// The "swapp-batch" v1 request document, as one shared format.
//
// A batch of projection requests is described by an io/record document whose
// rows are
//
//   request "<BT|SP|LU/C|D or file:PATH>" "<target machine>" <tasks>
//           [<threads> [<reference>]]
//
// The same document travels three paths: `swapp batch` reads it from a file,
// `swapp request` reads it from a file and forwards it over the server
// socket, and `swapp serve` decodes it from a request frame.  Keeping the
// parse/serialise pair here (instead of in the CLI) is what makes the wire
// payload and the file format one thing — a server batch is byte-for-byte a
// batch file.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "service/planner.h"

namespace swapp::service {

/// One `request` row of a "swapp-batch" v1 document.
struct BatchRow {
  std::string app;     ///< "BT|SP|LU/C|D" or "file:PATH"
  std::string target;  ///< machine model name
  int tasks = 0;
  int threads = 1;
  /// > 0 runs the GA surrogate search once at this task count and rescales
  /// it to every other count of the same (app, target) group.
  int reference = 0;
};

/// Reads a "swapp-batch" v1 document.  Throws InvalidArgument on a malformed
/// header, an unknown row tag, a short row, or an empty document.
std::vector<BatchRow> read_batch_requests(std::istream& in);

/// Writes rows as a "swapp-batch" v1 document (inverse of
/// `read_batch_requests`; always emits all five fields).
void write_batch_requests(std::ostream& out, const std::vector<BatchRow>& rows);

/// The engine-facing request for one row.
ServiceRequest to_service_request(const BatchRow& row);

/// The machines `rows` name, each once, in first-appearance order: the
/// target list a batch's service is built with.  Throws NotFound for an
/// unknown machine name.
std::vector<machine::Machine> row_targets(const std::vector<BatchRow>& rows);

}  // namespace swapp::service
