// golden: gemm seed-0 config {'P0': 20, 'P1': 5}
// source_key: d89e1efa28faf2e8c2d25b1bdc70d00d4922562240c0d9714103115f37572bd5
typedef __INT64_TYPE__ int64_t;
typedef __INT32_TYPE__ int32_t;
typedef __INT16_TYPE__ int16_t;
typedef __INT8_TYPE__ int8_t;
typedef __UINT8_TYPE__ uint8_t;
typedef __SIZE_TYPE__ size_t;
extern void* calloc(size_t, size_t);
extern void free(void*);

static inline int64_t repro_floordiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
    return q;
}

static inline int64_t repro_floormod(int64_t a, int64_t b) {
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}

void repro_main(double* A, const int64_t* A_shape, double* B, const int64_t* B_shape, double* C, const int64_t* C_shape, double* C_out, const int64_t* C_out_shape) {
    (void)A_shape;
    (void)B_shape;
    (void)C_shape;
    (void)C_out_shape;
    double* AB = (double*)calloc((size_t)500, sizeof(double));
    for (int64_t i_outer = 0; i_outer < 0 + 1; ++i_outer) {
        const int64_t licm11 = (i_outer * 20);
        for (int64_t j_outer = 0; j_outer < 0 + 5; ++j_outer) {
            const int64_t licm2 = licm11;
            const int64_t licm3 = (j_outer * 5);
            for (int64_t i_inner = 0; i_inner < 0 + 20; ++i_inner) {
                const int64_t licm0 = (licm2 + i_inner);
                const int64_t licm1 = licm3;
                for (int64_t j_inner = 0; j_inner < 0 + 5; ++j_inner) {
                    AB[(licm0) * 25 + (licm1 + j_inner)] = 0.0;
                }
            }
            const int64_t licm9 = licm11;
            const int64_t licm10 = (j_outer * 5);
            for (int64_t k = 0; k < 0 + 30; ++k) {
                const int64_t licm7 = licm9;
                const int64_t licm8 = licm10;
                for (int64_t i_inner = 0; i_inner < 0 + 20; ++i_inner) {
                    const double licm4 = A[((licm7 + i_inner)) * 30 + k];
                    const int64_t licm5 = (licm7 + i_inner);
                    const int64_t licm6 = licm8;
                    for (int64_t j_inner = 0; j_inner < 0 + 5; ++j_inner) {
                        const int64_t cse0 = (licm6 + j_inner);
                        AB[(licm5) * 25 + cse0] = (AB[(licm5) * 25 + cse0] + (licm4 * B[(k) * 25 + cse0]));
                    }
                }
            }
        }
    }
    for (int64_t i = 0; i < 0 + 20; ++i) {
        for (int64_t j = 0; j < 0 + 25; ++j) {
            C_out[(i) * 25 + j] = ((AB[(i) * 25 + j] * 1.5) + (C[(i) * 25 + j] * 1.2));
        }
    }
    free(AB);
}
