// golden: jacobi2d seed-0 config {'P0': 15, 'P1': 10}
// source_key: cc9bda49f56ad3b864e8dbdf619a9f6a048dc5cc29b9459d6354049fd7dd3001
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

void repro_main(double* A, const int64_t* A_shape, double* sweep1, const int64_t* sweep1_shape) {
    (void)A_shape;
    (void)sweep1_shape;
    double* sweep0 = (double*)calloc((size_t)144, sizeof(double));
    for (int64_t i_outer = 0; i_outer < 0 + 1; ++i_outer) {
        const int64_t licm7 = (i_outer * 12);
        for (int64_t j_outer = 0; j_outer < 0 + 2; ++j_outer) {
            const int64_t licm5 = licm7;
            const int64_t licm6 = (j_outer * 10);
            for (int64_t i_inner = 0; i_inner < 0 + 12; ++i_inner) {
                const uint8_t licm0 = (((licm5 + i_inner) > 0) && ((licm5 + i_inner) < 11));
                const int64_t licm1 = ((((licm5 + i_inner) - 1)) > (0) ? (((licm5 + i_inner) - 1)) : (0));
                const int64_t licm2 = ((((licm5 + i_inner) + 1)) < (11) ? (((licm5 + i_inner) + 1)) : (11));
                const int64_t licm3 = (licm5 + i_inner);
                const int64_t licm4 = licm6;
                for (int64_t j_inner = 0; j_inner < 0 + 10; ++j_inner) {
                    if (((licm4 + j_inner) < 12)) {
                        const int64_t cse1 = (licm4 + j_inner);
                        const double cse0 = A[(licm3) * 12 + cse1];
                        sweep0[(licm3) * 12 + cse1] = (((licm0 && ((cse1 > 0) && (cse1 < 11)))) ? ((0.2 * ((((cse0 + A[(licm3) * 12 + (((cse1 - 1)) > (0) ? ((cse1 - 1)) : (0))]) + A[(licm3) * 12 + (((cse1 + 1)) < (11) ? ((cse1 + 1)) : (11))]) + A[(licm1) * 12 + cse1]) + A[(licm2) * 12 + cse1]))) : (cse0));
                    }
                }
            }
        }
    }
    for (int64_t i_outer_1 = 0; i_outer_1 < 0 + 1; ++i_outer_1) {
        const int64_t licm15 = (i_outer_1 * 12);
        for (int64_t j_outer_1 = 0; j_outer_1 < 0 + 2; ++j_outer_1) {
            const int64_t licm13 = licm15;
            const int64_t licm14 = (j_outer_1 * 10);
            for (int64_t i_inner_1 = 0; i_inner_1 < 0 + 12; ++i_inner_1) {
                const uint8_t licm8 = (((licm13 + i_inner_1) > 0) && ((licm13 + i_inner_1) < 11));
                const int64_t licm9 = ((((licm13 + i_inner_1) - 1)) > (0) ? (((licm13 + i_inner_1) - 1)) : (0));
                const int64_t licm10 = ((((licm13 + i_inner_1) + 1)) < (11) ? (((licm13 + i_inner_1) + 1)) : (11));
                const int64_t licm11 = (licm13 + i_inner_1);
                const int64_t licm12 = licm14;
                for (int64_t j_inner_1 = 0; j_inner_1 < 0 + 10; ++j_inner_1) {
                    if (((licm12 + j_inner_1) < 12)) {
                        const int64_t cse3 = (licm12 + j_inner_1);
                        const double cse2 = sweep0[(licm11) * 12 + cse3];
                        sweep1[(licm11) * 12 + cse3] = (((licm8 && ((cse3 > 0) && (cse3 < 11)))) ? ((0.2 * ((((cse2 + sweep0[(licm11) * 12 + (((cse3 - 1)) > (0) ? ((cse3 - 1)) : (0))]) + sweep0[(licm11) * 12 + (((cse3 + 1)) < (11) ? ((cse3 + 1)) : (11))]) + sweep0[(licm9) * 12 + cse3]) + sweep0[(licm10) * 12 + cse3]))) : (cse2));
                    }
                }
            }
        }
    }
    free(sweep0);
}
