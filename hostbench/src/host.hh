/**
 * @file
 * Host stamp, calibration loop, peak RSS and scratch-directory helpers.
 * The stamp and the calibration times let a reader spot a run taken in
 * a host slow phase; they never adjust a metric.
 */

#ifndef HOSTBENCH_HOST_HH
#define HOSTBENCH_HOST_HH

#include <string>

namespace hostbench
{

/** Hardware threads, CPU model, compiler, build flags and commit as one
 *  flat JSON object (the commit comes from $HOSTBENCH_COMMIT). */
std::string hostStampJson();

/** Milliseconds one fixed integer loop takes on this host right now. */
double calibrationMs();

/** Peak resident set size of this process, MiB. */
double peakRssMib();

/** A fresh, uniquely named directory inside a parent directory, removed
 *  with everything below it when the object goes away. */
class FreshDir
{
  public:
    /** Creates @p parent if missing. Throws std::runtime_error. */
    FreshDir(const std::string &parent, const std::string &stem);
    ~FreshDir();

    FreshDir(const FreshDir &) = delete;
    FreshDir &operator=(const FreshDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Filesystem type of @p path: "tmpfs", "disk" or "unknown". */
std::string filesystemKind(const std::string &path);

} // namespace hostbench

#endif // HOSTBENCH_HOST_HH
