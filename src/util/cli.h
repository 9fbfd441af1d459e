/**
 * @file
 * Minimal command-line option parser for the benchmark drivers.
 */

#ifndef RHTM_UTIL_CLI_H
#define RHTM_UTIL_CLI_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace rhtm
{

/**
 * Tiny --key=value option parser.
 *
 * Recognizes "--key=value" and bare "--flag" (stored as "1"). Every
 * has()/get*() call marks its key as read, so once a driver has parsed
 * all of its flags, unreadKeys() names the ones it does not know and
 * the driver can reject typos. Far smaller than a real flags library,
 * but the benches need only a handful of knobs.
 */
class CliOptions
{
  public:
    /** Parse argv; never throws, malformed tokens land in errors(). */
    CliOptions(int argc, char **argv);

    /** True if --key was present. */
    bool has(const std::string &key) const;

    /** String value of --key, or @p def when absent. */
    std::string getString(const std::string &key,
                          const std::string &def) const;

    /** Integer value of --key, or @p def when absent or unparsable. */
    int64_t getInt(const std::string &key, int64_t def) const;

    /** Double value of --key, or @p def when absent or unparsable. */
    double getDouble(const std::string &key, double def) const;

    /** Comma-separated integer list of --key, or @p def when absent. */
    std::vector<int64_t> getIntList(const std::string &key,
                                    const std::vector<int64_t> &def) const;

    /** Tokens that did not look like --key[=value]. */
    const std::vector<std::string> &errors() const { return errors_; }

    /** Keys given on the command line that no has()/get*() call has
     *  read, in key order. */
    std::vector<std::string> unreadKeys() const;

  private:
    /** Mark @p key read and look it up. */
    std::map<std::string, std::string>::const_iterator
    find(const std::string &key) const;

    std::map<std::string, std::string> values_;
    std::vector<std::string> errors_;
    mutable std::set<std::string> read_;
};

} // namespace rhtm

#endif // RHTM_UTIL_CLI_H
