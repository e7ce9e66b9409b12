/*
 * The series reader in C: one pass over a text file's bytes that turns
 * a clean numeric table into float64 values (io_parse).  Loaded through
 * ctypes by repro/io.py, whose np.loadtxt / np.genfromtxt path stays the
 * judge of every file this core declines.  The core holds no state.
 *
 * Each token goes one of two ways, both correctly rounded, so a value
 * has the bits Python's float parsing (PyOS_string_to_double, behind
 * np.loadtxt) gives it:
 *   - Clinger's fast path: a token of at most 19 significant digits
 *     whose digits form an integer m <= 2^53 and whose decimal exponent
 *     e lies in [-22, 22] is (double)m * 10^e or (double)m / 10^-e.
 *     m and 10^|e| are exact doubles, so the one multiply or divide is
 *     the correctly rounded value.  Build with -ffp-contract=off and no
 *     fast-math.
 *   - any other token is copied into a NUL-terminated local buffer and
 *     converted by strtod_l under the "C" locale (glibc's strtod rounds
 *     correctly, subnormals and overflow to inf included).
 *
 * The whole file is declined (io_parse returns -1) on any byte outside
 * 0-9 + - . e E, space, tab, \n and \r\n (and ',' in comma mode), on a
 * token that is not [+-]?(D+(.D*)?|.D+)([eE][+-]?D+)?, on a token longer
 * than MAX_TOKEN bytes that needs strtod_l, on an empty cell, on rows of
 * different lengths and on a file without values.  In comma mode a line
 * of only spaces or tabs is also declined: np.loadtxt reads it as one
 * empty cell.
 */
#define _GNU_SOURCE
#include <locale.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#ifdef __APPLE__
#include <xlocale.h>
#endif

#define MAX_TOKEN 511
#define MAX_FAST_DIGITS 19
#define MAX_FAST_MANTISSA (UINT64_C(1) << 53)

static const double POW10[23] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

static int is_digit(char c) { return (unsigned char)(c - '0') < 10; }

static int is_blank(char c) { return c == ' ' || c == '\t'; }

/*
 * Convert the token [start, end) with strtod_l under the "C" locale,
 * through a NUL-terminated copy: the caller's buffer is not terminated.
 * Returns 0, or -1 when the token is longer than MAX_TOKEN bytes.  Kept
 * out of line so the fast path carries no token buffer.
 */
static __attribute__((noinline)) int slow_convert(
    const char *start, const char *end, locale_t *loc, double *value)
{
    size_t len = (size_t)(end - start);
    if (len > MAX_TOKEN)
        return -1;
    char buffer[MAX_TOKEN + 1];
    memcpy(buffer, start, len);
    buffer[len] = '\0';
    if (*loc == (locale_t)0) {
        *loc = newlocale(LC_ALL_MASK, "C", (locale_t)0);
        if (*loc == (locale_t)0)
            return -1;
    }
    char *stop;
    *value = strtod_l(buffer, &stop, *loc);
    return stop == buffer + len ? 0 : -1;
}

/*
 * Read the number that starts at p (and ends before end) into *value.
 * Returns the first byte after it, or NULL when no number starts at p or
 * it is too long for the strtod_l buffer.  *loc is created on the first
 * strtod_l conversion and freed by the caller.
 */
static const char *convert(const char *p, const char *end, locale_t *loc, double *value)
{
    const char *start = p;
    int negative = 0;
    if (*p == '+' || *p == '-') {
        negative = *p == '-';
        p++;
    }
    /* m takes every significant digit; it wraps past 19 of them, and is
     * then not used. */
    uint64_t m = 0;
    const char *digits_start = p;
    while (p < end && *p == '0')
        p++;
    const char *significant = p;
    for (; p < end && is_digit(*p); p++)
        m = m * 10 + (uint64_t)(*p - '0');
    int64_t digits = p - significant;
    int any_digit = p > digits_start;
    int64_t scale = 0;    /* digits after the point */
    if (p < end && *p == '.') {
        const char *fraction = ++p;
        if (digits == 0) {
            while (p < end && *p == '0')
                p++;
            significant = p;
        }
        for (; p < end && is_digit(*p); p++)
            m = m * 10 + (uint64_t)(*p - '0');
        digits += p - significant;
        scale = p - fraction;
        any_digit |= p > fraction;
    }
    if (!any_digit)
        return NULL;
    int64_t exponent = 0;
    if (p < end && (*p == 'e' || *p == 'E')) {
        int exp_negative = 0;
        p++;
        if (p < end && (*p == '+' || *p == '-')) {
            exp_negative = *p == '-';
            p++;
        }
        if (p == end || !is_digit(*p))
            return NULL;
        for (; p < end && is_digit(*p); p++) {
            if (exponent < 100000)  /* saturate: far outside any double */
                exponent = exponent * 10 + (*p - '0');
        }
        if (exp_negative)
            exponent = -exponent;
    }

    int64_t e = exponent - scale;
    if (digits == 0) {
        *value = negative ? -0.0 : 0.0;
        return p;
    }
    if (digits <= MAX_FAST_DIGITS && m <= MAX_FAST_MANTISSA && e >= -22 && e <= 22) {
        double v = (double)m;
        v = e >= 0 ? v * POW10[e] : v / POW10[-e];
        *value = negative ? -v : v;
        return p;
    }

    return slow_convert(start, p, loc, value) == 0 ? p : NULL;
}

/*
 * Parse the len bytes at buf (not NUL-terminated) into out, row after
 * row; comma selects ',' as the delimiter, otherwise runs of spaces and
 * tabs separate the cells.  Returns the number of values and writes
 * (rows, cols) to shape, or returns -1 to decline the file.  At most cap
 * values are written; a file with more is declined.
 */
int64_t io_parse(const char *buf, int64_t len, int comma, double *out,
                 int64_t cap, int64_t *shape)
{
    const char *p = buf, *end = buf + len;
    int64_t n = 0, rows = 0, cols = -1, result = -1;
    locale_t loc = (locale_t)0;

    while (p < end) {
        const char *line = p;
        int64_t fields = 0;
        int open_cell = 0;  /* comma mode: a delimiter awaits its cell */
        for (;;) {
            while (p < end && is_blank(*p))
                p++;
            if (p == end || *p == '\n' || *p == '\r')
                break;
            if (n == cap || (p = convert(p, end, &loc, &out[n])) == NULL)
                goto done;
            n++;
            fields++;
            open_cell = 0;
            if (p < end && !is_blank(*p) && *p != '\n' && *p != '\r'
                && !(comma && *p == ','))
                goto done;  /* a malformed token, or a stray byte */
            while (p < end && is_blank(*p))
                p++;
            if (comma && p < end && *p == ',') {
                p++;
                open_cell = 1;
            } else if (comma && p < end && *p != '\n' && *p != '\r') {
                goto done;  /* two tokens in one cell */
            }
        }
        if (open_cell)
            goto done;
        if (comma && fields == 0 && p != line)
            goto done;
        if (p < end) {
            if (*p == '\r') {
                if (p + 1 == end || p[1] != '\n')
                    goto done;
                p++;
            }
            p++;
        }
        if (fields > 0) {
            if (cols < 0)
                cols = fields;
            else if (fields != cols)
                goto done;
            rows++;
        }
    }
    if (n > 0) {
        shape[0] = rows;
        shape[1] = cols;
        result = n;
    }
done:
    if (loc != (locale_t)0)
        freelocale(loc);
    return result;
}
