#include <stdio.h>

int main(void) {
    unsigned d;
    d = 7u;
    return 0;
}
