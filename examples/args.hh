/**
 * @file
 * Positional command-line arguments of the examples: an index into
 * one of the paper's tables (versions, fault kinds).
 */

#ifndef PERFORMA_EXAMPLES_ARGS_HH
#define PERFORMA_EXAMPLES_ARGS_HH

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

#endif // PERFORMA_EXAMPLES_ARGS_HH
