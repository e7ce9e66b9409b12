/*
 * The discretize front half in C: per-window statistics, PAA
 * coefficients, the near-decision guard and the SAX letters in one pass
 * over the windows (sax_letters), then numerosity reduction and the
 * packed word keys (sax_reduce).  Loaded through ctypes by
 * repro/sax/saxcore.py.  The core holds no state.
 *
 * sax_letters reads the centred prefix sums of
 * repro.timeseries.kernels.centred_prefix_sums and evaluates, in this
 * order (DESIGN.md section 15):
 *   - mu = (c[i+W] - c[i]) / W and s2 = c2[i+W] - c2[i];
 *   - var = max(s2/W - mu*mu, 0) written as a compare that keeps a NaN,
 *     like np.maximum (fmax would drop it);
 *   - flat = !(sigma >= threshold), so a NaN sigma is flat;
 *   - the fractional segment edges c[q] + (r/P)*x[q];
 *   - z = ((edge[j+1] - edge[j])*(P/W) - mu) / sigma, and z = 0 on flat
 *     or sigma == 0 rows.
 * Build with -ffp-contract=off and no fast-math so that each of these
 * rounds as written.
 *
 * The near-decision guard (DESIGN.md section 15) bounds the error of
 * var by e_var and of each coefficient's numerator by e_num, and checks
 * them against the breakpoints of the requested alphabet only: a
 * coefficient further than its tolerance from every one of those
 * breakpoints has the same letter under the two-pass window-matrix
 * arithmetic.  Flagged rows are listed for the caller, who recomputes
 * them with that arithmetic (repro.sax.discretize._two_pass_rows).
 * Letters follow np.searchsorted(cuts, z, side="right"), a NaN sorting
 * last.
 */
#include <math.h>
#include <stdint.h>

/* Unit roundoff of float64. */
#define U 1.1102230246251565e-16

enum { NONE = 0, EXACT = 1, MINDIST = 2 };

/* Number of cuts <= z, with a NaN above every cut. */
static int letter_of(double z, const double *cuts, int n_cuts)
{
    int lo = 0, hi = n_cuts;
    while (lo < hi) {
        int mid = (lo + hi) >> 1;
        if (z < cuts[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/*
 * Letters of every window into letters (k rows of P bytes) and the
 * indices of the guard-flagged windows into flagged; returns how many
 * were flagged.  q and rp hold the P + 1 segment edges: edge j sits at
 * q[j] + rp[j] with rp[j] = r_j / P (0 when the edge is a sample).
 */
int64_t sax_letters(
    int64_t k, int64_t window, int64_t paa, double centre,
    const double *x, const double *c, const double *c2,
    const int64_t *q, const double *rp,
    const double *cuts, int64_t n_cuts, double threshold,
    uint8_t *letters, int64_t *flagged)
{
    const double w = (double)window;
    const double ppw = (double)paa / (double)window;
    const double thr2 = threshold * threshold;
    const double slope_u = U * (double)(window + 3);
    const int zero_letter = letter_of(0.0, cuts, (int)n_cuts);
    int64_t n_flagged = 0;

    for (int64_t i = 0; i < k; i++) {
        uint8_t *row = letters + i * paa;
        double mu = (c[i + window] - c[i]) / w;
        double s2 = c2[i + window] - c2[i];
        double var = s2 / w - mu * mu;
        if (var < 0.0)
            var = 0.0;
        double sigma = sqrt(var);
        int flat = !(sigma >= threshold);

        double m = sqrt(s2);
        double c_max = fabs(c[i]) + w * m;
        double r_max = fabs(centre) + m;
        double uwr = U * w * r_max;
        double e_var = 4 * U * (c2[i + window] + fabs(mu) * c_max)
                       + slope_u * var + uwr * uwr;
        int near_flat = !(fabs(var - thr2) > 2 * e_var) || sigma == 0.0;

        if (flat || sigma == 0.0) {
            for (int64_t j = 0; j < paa; j++)
                row[j] = (uint8_t)zero_letter;
            if (near_flat)
                flagged[n_flagged++] = i;
            continue;
        }

        int checked = !near_flat;
        double e_num = 12 * U * (c_max + m) + U * w * (r_max + 2 * m);
        double offset_tol = 2 * e_num / sigma;
        double slope_tol = 2 * (e_var / (2 * var) + slope_u);
        int near_cut = 0;
        double left = c[q[0] + i];
        if (rp[0] != 0.0)
            left += rp[0] * x[q[0] + i];
        for (int64_t j = 0; j < paa; j++) {
            double right = c[q[j + 1] + i];
            if (rp[j + 1] != 0.0)
                right += rp[j + 1] * x[q[j + 1] + i];
            double z = (right - left) * ppw;
            z -= mu;
            z /= sigma;
            left = right;
            int letter = letter_of(z, cuts, (int)n_cuts);
            row[j] = (uint8_t)letter;
            if (checked && !near_cut) {
                double gap = INFINITY;
                if (letter > 0)
                    gap = fabs(z - cuts[letter - 1]);
                if (letter < n_cuts) {
                    double up = fabs(cuts[letter] - z);
                    if (up < gap)
                        gap = up;
                }
                double tol = offset_tol + slope_tol * fabs(z);
                near_cut = !(gap > tol);
            }
        }
        if (near_flat || near_cut)
            flagged[n_flagged++] = i;
    }
    return n_flagged;
}

/*
 * Numerosity reduction over the final letters (k rows of P bytes):
 * writes the kept window indices to kept and each kept word's key,
 * sum_j letter_j * A^(P-1-j), to keys; returns the number kept.  EXACT
 * keeps a row that differs from the previous row, MINDIST one that has
 * a letter at least two away from the last kept row's, NONE every row.
 * The caller ensures A^P < 2^62.
 */
int64_t sax_reduce(
    const uint8_t *letters, int64_t k, int64_t paa, int64_t alphabet,
    int strategy, int64_t *kept, int64_t *keys)
{
    int64_t n_kept = 0;
    const uint8_t *last = 0;
    for (int64_t i = 0; i < k; i++) {
        const uint8_t *row = letters + i * paa;
        int keep = last == 0 || strategy == NONE;
        if (!keep && strategy == EXACT) {
            const uint8_t *prev = row - paa;
            for (int64_t j = 0; j < paa && !keep; j++)
                keep = row[j] != prev[j];
        } else if (!keep) {
            for (int64_t j = 0; j < paa && !keep; j++) {
                int d = (int)row[j] - (int)last[j];
                keep = d > 1 || d < -1;
            }
        }
        if (!keep)
            continue;
        int64_t key = 0;
        for (int64_t j = 0; j < paa; j++)
            key = key * alphabet + row[j];
        kept[n_kept] = i;
        keys[n_kept] = key;
        n_kept++;
        last = row;
    }
    return n_kept;
}
