#include <stdio.h>

int main(void) {
    unsigned b = 7u;
    b = b;
    b = 9u;
    return 0;
}
