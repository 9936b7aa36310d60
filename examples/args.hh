/**
 * @file
 * Positional command-line arguments of the examples: an index into
 * one of the paper's tables (versions, fault kinds), or a number of
 * days.
 */

#ifndef PERFORMA_EXAMPLES_ARGS_HH
#define PERFORMA_EXAMPLES_ARGS_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>

/**
 * The entry of @p table that argv[@p i] indexes, or table[@p fallback]
 * when there is no such argument. Anything but an index into @p table
 * prints "usage: argv[0] @p usage" and exits with status 2.
 */
template <typename T, std::size_t N>
T
tableArg(const T (&table)[N], int argc, char **argv, int i,
         std::size_t fallback, const char *usage)
{
    if (argc <= i)
        return table[fallback];
    const char *s = argv[i];
    char *end = nullptr;
    unsigned long v = std::strtoul(s, &end, 10);
    if (*s < '0' || *s > '9' || *end != '\0' || v >= N) {
        std::fprintf(stderr, "usage: %s %s\n", argv[0], usage);
        std::exit(2);
    }
    return table[v];
}

/**
 * The number of days argv[@p i] gives, or @p fallback when there is
 * no such argument. Anything but a whole, finite, non-negative number
 * that fills the argument ("abc", "-3", "2x", "7.5", "1e999") prints
 * "usage: argv[0] @p usage" and exits with status 2.
 */
inline double
daysArg(int argc, char **argv, int i, double fallback, const char *usage)
{
    if (argc <= i)
        return fallback;
    const char *s = argv[i];
    char *end = nullptr;
    double v = std::strtod(s, &end);
    if (*s < '0' || *s > '9' || *end != '\0' || !std::isfinite(v) ||
        v != std::floor(v)) {
        std::fprintf(stderr, "usage: %s %s\n", argv[0], usage);
        std::exit(2);
    }
    return v;
}

#endif // PERFORMA_EXAMPLES_ARGS_HH
